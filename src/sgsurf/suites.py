"""Self-contained verification suites over fixed grids and point sets.

Each suite checks one family of identities or geometric constraints against a
fixed tolerance.  Every case and sample is a fixed value, so reports are
byte-stable.

To add a suite, write a generator named ``suite_<name>`` that takes one case
and yields its residuals (numbers, lists or arrays), and decorate it with
``@suite(report_name, tolerance, cases=...)``; ``identity=True`` also puts it
in the ``identities`` corpus.  The decorated function returns a SuiteResult,
and ``verify`` runs the suites in the order they are registered here.  The
value of a suite is the largest ``max |r|`` over its yielded items r.  A
sensitivity suite (``comparison="gt"``: a broken input must be detected, so
it passes when the value EXCEEDS the tolerance) takes the smallest instead.
A NaN anywhere makes the value NaN, which fails both comparisons; a suite
that yields nothing reads NaN as well, and so does one that raises
ValidationError while it draws its residuals (a curve window that fails its
invariants), so the other suites still run.

``cases`` is a function that returns the suite's fixed cases (moduli,
lattices or tuples), and the runner chains the generator over all of them
into the one reduction, whose max or min does not depend on the grouping.
The lattices come from ``_curves`` and ``_ksurfaces``, and samples spread
over a box from ``_points``, a quasi-random point set.

Each suite evaluates a window of sites in one array call, with numpy's
complex arithmetic, and reduces it axis-wise; the report prints every bit,
so reordering an operation can move the report bytes.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import elliptic, frames, ksurf, sg, surfaces, tau, theta
from .errors import ValidationError, finite_or_none, max_abs

MODULI = (0.3, 0.6, 0.9)
MODULI_WIDE = (0.3, 0.6, 0.9, 0.99)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_residual: float
    tolerance: float
    comparison: str  # "lt": pass if below tolerance, "gt": pass if above

    @property
    def passed(self) -> bool:
        if self.comparison == "gt":
            return self.max_residual > self.tolerance
        return self.max_residual < self.tolerance

    def as_dict(self) -> dict:
        """The report entry; a non-finite residual is null, as strict JSON needs."""
        d = asdict(self)
        d["max_residual"] = finite_or_none(self.max_residual)
        d["pass"] = self.passed
        return d


ALL_SUITES: list = []   # every registered suite, in registration order


def suite(name: str, tolerance: float, comparison: str = "lt", identity: bool = False, *,
          cases):
    """Register a generator of residuals as the suite ``name`` (see the module docstring)."""
    def register(residuals):
        @functools.wraps(residuals)
        def run() -> SuiteResult:
            try:
                items = itertools.chain.from_iterable(map(residuals, cases()))
                values = np.array([max_abs(r) for r in items] or [math.nan])
            except ValidationError:   # an input that fails its invariants reads NaN
                values = np.array([math.nan])
            value = values.max() if comparison == "lt" else values.min()
            return SuiteResult(name, float(value), tolerance, comparison)

        run.identity = identity
        ALL_SUITES.append(run)
        return run

    return register


# The lattice builders, case functions and point sets are cached, so each
# frozen lattice and point set is built once per process; evaluated values
# are never kept, so a probe set after a run still reaches every suite.

# g_d, the root of g^(d+1) = g + 1, for boxes of d = 1..4 coordinates
_R_D_ROOTS = (1.618033988749895, 1.324717957244746, 1.2207440846057596, 1.1673039782614187)


@functools.lru_cache(maxsize=None)
def _points(count: int, lo, hi) -> np.ndarray:
    """``count`` points of the R_d sequence (Roberts 2018) in the box [lo, hi):
    x_i = lo + (hi - lo) frac(i alpha) for i = 1..count, with alpha_j = g^-j
    and g the root of g^(d+1) = g + 1.  Scalar bounds give shape (count,),
    d-tuples shape (d, count), one row per coordinate.  Only IEEE multiply,
    add and floor reach a point, so the bits do not depend on numpy's SIMD
    dispatch or version.  Shared by every caller, so read-only."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    alpha = np.cumprod(np.full(lo.size, 1.0 / _R_D_ROOTS[lo.size - 1]))
    frac = np.arange(1, count + 1) * alpha[:, None]
    frac -= np.floor(frac)
    x = lo[..., None] + (hi - lo)[..., None] * frac.reshape(lo.shape + (count,))
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=None)
def _curves(k):
    """The four curve lattices (dn, cn; untwisted, twisted) of modulus k with
    gamma = 0.8 and beta = 1."""
    mod = elliptic.make_modulus(k)
    return tuple(surfaces.SurfaceParams(mod=mod, family=family, gamma_step=0.8,
                                        beta_rate=1.0, twisted=twisted)
                 for family in elliptic.FAMILIES for twisted in (False, True))


@functools.lru_cache(maxsize=None)
def _ksurfaces(k):
    """The two K-surface lattices (dn, cn) of modulus k with gamma = 0.8 and delta = 0.55."""
    mod = elliptic.make_modulus(k)
    return tuple(ksurf.KParams(mod=mod, family=family, gamma_step=0.8, delta_step=0.55)
                 for family in elliptic.FAMILIES)


# ---------------------------------------------------------------- elliptic --

@suite("elliptic.legendre_relation", 1e-12, cases=lambda: MODULI_WIDE)
def suite_legendre(k):
    yield elliptic.make_modulus(k).legendre_residual()


@suite("elliptic.pythagorean_identities", 1e-12, cases=lambda: MODULI_WIDE)
def suite_jacobi_identities(k):
    mod = elliptic.make_modulus(k)
    u = np.linspace(-4.0 * mod.K, 4.0 * mod.K, 81)
    sn, cn, dn = elliptic.jacobi(u, mod)
    yield sn * sn + cn * cn - 1.0
    yield dn * dn + mod.m * sn * sn - 1.0


@suite("elliptic.jacobi_vs_theta_oracle", 1e-11, cases=lambda: MODULI_WIDE)
def suite_jacobi_vs_theta(k):
    mod = elliptic.make_modulus(k)
    u = mod.K * _points(25, -4.0, 4.0)
    for real, oracle in zip(elliptic.jacobi(u, mod), theta.jacobi_complex(u, mod)):
        yield abs(real - oracle)


@suite("elliptic.addition_formulae", 1e-11, identity=True, cases=lambda: MODULI)
def suite_addition_formulae(k):
    mod = elliptic.make_modulus(k)
    u, g = mod.K * _points(70, (-2.0, -2.0), (2.0, 2.0))
    su, cu, du = elliptic.jacobi(u, mod)
    sgm, cg, dg = elliptic.jacobi(g, mod)
    den = 1.0 - mod.m * sgm * sgm * su * su
    s2, c2, d2 = elliptic.jacobi(u + g, mod)
    yield s2 - (cg * dg * su + sgm * cu * du) / den
    yield c2 - (cg * cu - sgm * dg * su * du) / den
    yield d2 - (dg * du - mod.m * sgm * cg * su * cu) / den


@suite("elliptic.shifted_identity_corpus", 1e-11, identity=True, cases=lambda: MODULI)
def suite_elliptic_identity_corpus(k):
    """Nine product identities of shifted-argument triples at 200 points (gamma, psi)."""
    mod = elliptic.make_modulus(k)
    g, psi = mod.K * _points(200, (-2.0, -2.0), (2.0, 2.0))
    k2 = mod.m
    s0, c0, d0 = elliptic.jacobi(psi, mod)
    s1, c1, d1 = elliptic.jacobi(psi + g, mod)
    sm, cm, dm = elliptic.jacobi(psi - g, mod)
    sg_, cg, dg = elliptic.jacobi(g, mod)
    yield from (
        dg * s0 * s1 + c0 * c1 - cg,                                   # (i)
        k2 * cg * s0 * s1 + d0 * d1 - dg,                              # (ii)
        k2 * sg_ * s1 * s1 + dg * s1 * c0 * d1 - s0 * c1 * d1 - sg_,   # (iii)
        sg_ * d1 + s0 * c1 - dg * s1 * c0,                             # (iv)
        dg * d1 + k2 * sg_ * s1 * c0 - d0,                             # (v)
        dg * s0 * c0 * s1 * c1 + sg_ * c0 * d0 * s1 - c0 * c0 * s1 * s1,  # (vi)
        cg * c1 + sg_ * s1 * d0 - c0,                                  # (vii)
        sg_ * c1 + s0 * d1 - cg * s1 * d0,                             # (viii)
        dg * dg * sm * s1 + cm * c1 + sg_ * sg_ * dm * d1 - cg * cg,   # (ix)
    )


@functools.lru_cache(maxsize=None)
def _gauss_legendre(panels: int, nodes: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1]: (points, weights) of ``panels``
    equal panels with ``nodes`` points each, so int_a^b f is approximately
    (b - a) * (f(a + (b - a) * points) @ weights)."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    points = ((np.arange(panels)[:, None] + 0.5 * (t + 1.0)) / panels).ravel()
    return points, np.tile(w, panels) / (2.0 * panels)


@suite("elliptic.sn2_integral_vs_quadrature", 1e-10, cases=lambda: (1e-6,) + MODULI + (0.999,))
def suite_sn2_integral(k):
    """The sn^2 primitive against quadrature of sn^2, from k = 1e-6 to 0.999.

    Panels of at most K/4 lie well inside the strip |Im u| < K' where sn is
    analytic, so 20 nodes per panel resolve sn^2 to rounding.
    """
    points, weights = _gauss_legendre(16)
    mod = elliptic.make_modulus(k)
    u = np.linspace(-4.0 * mod.K, 4.0 * mod.K, 17)
    sn = elliptic.jacobi(u[:, None] * points, mod)[0]
    yield elliptic.sn2_integral(u, mod) - u * ((sn * sn) @ weights)


# ------------------------------------------------------------------- theta --

# The theta suites evaluate each distinct argument once: one array call per
# lattice over all samples and indices.

def _thetas_at(p, *args, js=(0, 1, 2, 3)):
    """[{j: theta_j(a)} for each argument a], from one array call."""
    return [{j: val for j, (val, _) in zip(js, each)} for each in theta._thetas(js, p, *args)]


@suite("theta.addition_identities", 1e-10, identity=True, cases=lambda: (0.3, 0.7))
def suite_theta_addition(k):
    """Four quadratic addition identities, both compound signs."""
    mod = elliptic.make_modulus(k)
    xr, xi, yr, yi = _points(100, (-1.0, -0.4, -1.0, -0.4), (1.0, 0.4, 1.0, 0.4))
    T = mod.taup.imag
    x, y = xr + 1j * (xi * T), yr + 1j * (yi * T)
    sy = {s: s * y for s in (1.0, -1.0)}
    X, Y, Z, *shifted = _thetas_at(theta.lattice_params(mod), x, y, 0.0,
                                   *(a for s in sy for a in (x + sy[s], x - sy[s])))
    for s, P, M in zip(sy, shifted[0::2], shifted[1::2]):
        # P[j] = theta_j(x + s y), M[j] = theta_j(x - s y)
        pairs = (
            (P[3] * M[0] * Z[3] * Z[0],
             X[3] * X[0] * Y[3] * Y[0] - s * X[1] * X[2] * Y[1] * Y[2]),
            (P[1] * M[2] * Z[3] * Z[0],
             X[1] * X[2] * Y[3] * Y[0] + s * X[3] * X[0] * Y[1] * Y[2]),
            (P[1] * M[3] * Z[2] * Z[0],
             X[1] * X[3] * Y[2] * Y[0] + s * X[2] * X[0] * Y[1] * Y[3]),
            (P[2] * M[0] * Z[2] * Z[0],
             X[2] * X[0] * Y[2] * Y[0] - s * X[1] * X[3] * Y[1] * Y[3]),
        )
        for lhs, rhs in pairs:
            yield abs(lhs - rhs) / np.maximum(1.0, abs(lhs))


@suite("theta.lattice_doubling_identities", 1e-10, identity=True, cases=lambda: (0.3, 0.6))
def suite_theta_lattice_doubling(k):
    """Landen-type identities between the taup and 2 taup lattices at shifted arguments."""
    mod = elliptic.make_modulus(k)
    psi, lam, z = _points(100, (-2.5, -1.0, -0.6), (2.5, 1.0, 0.6))
    p1, p2 = theta.lattice_params(mod), theta.lattice_params(mod, 2)
    den = mod.k * mod.Kp
    v = (psi - mod.K) / (2j * mod.Kp)
    iz = 1j * z
    vp = v + (lam + iz) / den
    vm = v + (-lam + iz) / den
    vz = v + iz / den
    # A, B: theta_j(., tau') at v+-, and C, D, Z at vz, lam/den and 0; P, M on 2 tau'
    A, B, C, D, Z = _thetas_at(p1, vp, vm, vz, lam / den, 0.0)
    P, M = _thetas_at(p2, vp, vm, js=(2, 3))
    checks = []
    for W, Q in ((A, P), (B, M)):
        checks += [
            (W[3] * Z[3], Q[3] ** 2 + Q[2] ** 2),
            (W[0] * Z[0], Q[3] ** 2 - Q[2] ** 2),
            (W[2] * Z[2], 2.0 * Q[2] * Q[3]),
        ]
    checks += [
        (C[3] * D[3], P[3] * M[3] + P[2] * M[2]),
        (C[0] * D[0], P[3] * M[3] - P[2] * M[2]),
        (C[2] * D[2], P[2] * M[3] + P[3] * M[2]),
        (C[1] * D[1], P[3] * M[2] - P[2] * M[3]),
    ]
    for lhs, rhs in checks:
        yield abs(lhs - rhs) / np.maximum(np.maximum(1.0, abs(lhs)), abs(rhs))


@suite("theta.jacobi_quotients", 1e-10, identity=True, cases=lambda: MODULI)
def suite_theta_jacobi_quotients(k):
    """The three quotient formulas tying thetas at v = (psi-K)/(2iK') to sn, cn, dn."""
    mod = elliptic.make_modulus(k)
    psi = _points(100, -3.5, 3.5)
    for quotient, real in zip(theta.jacobi_complex(psi, mod), elliptic.jacobi(psi, mod)):
        yield abs(quotient - real)


@suite("theta.weierstrass_scalars", 1e-10, identity=True, cases=lambda: MODULI)
def suite_weierstrass_scalars(k):
    """p(omega/2) = e1 + 1, both periods, and the two zeta-scalar relations."""
    points, weights = _gauss_legendre(4)
    mod = elliptic.make_modulus(k)
    wc = theta.weierstrass_constants(mod)
    om = wc.omega
    z0 = 0.213 + 0.11j
    # one array call covers the spot values and the quadrature nodes on
    # [omega/2, omega]
    values = theta.weierstrass_p(
        np.concatenate([[om / 2.0, z0 + 2.0 * om, z0, z0 + 2.0 * wc.omegap],
                        om / 2.0 + (om / 2.0) * points]), mod)
    half, z_om, z, z_omp = values[:4].tolist()
    yield [abs(half - (wc.e1 + 1.0)), abs(z_om - z), abs(z_omp - z)]
    # zeta(omega/2) - zeta(omega)/2 = k via the one permitted quadrature
    zom = wc.zeta_omega_over_omega * om
    integral = (om / 2.0) * float(values[4:].real @ weights)
    yield zom + integral - 0.5 * zom - mod.k
    # p(omega/2) + zeta(omega)/omega = 2 E'/K'
    yield (wc.e1 + 1.0) + wc.zeta_omega_over_omega - 2.0 * mod.Ep / mod.Kp
    # alternative closed form of the zeta scalar
    alt = math.pi / (mod.K * mod.Kp) - 2.0 * mod.E / mod.K + (1.0 - wc.e1)
    yield alt - wc.zeta_omega_over_omega


@suite("theta.modular_identity", 1e-9, identity=True, cases=lambda: MODULI)
def suite_theta_modular(k):
    """Imaginary transformation theta_3(v/tau | tau') = exp(pi i (v^2/tau - 1/4)) sqrt(tau) theta_3(v|tau)."""
    mod = elliptic.make_modulus(k)
    vr, vi = _points(60, (-0.5, -0.25), (0.5, 0.25))
    v = vr + 1j * vi
    lhs = theta.theta_j(3, v / mod.tau, theta.lattice_params(mod))
    rhs = (np.exp(1j * math.pi * (v * v / mod.tau - 0.25))
           * cmath.sqrt(mod.tau) * theta.theta_j(3, v, theta.ThetaParams(mod.tau)))
    yield abs(lhs - rhs) / np.maximum(1.0, abs(rhs))


# ---------------------------------------------------------------------- sg --

@suite("sg.semi_discrete_residuals", 1e-10, cases=lambda: [
       p for k in MODULI_WIDE for p in _curves(k)])
def suite_semi_sg_residuals(p):
    ms, ts = np.arange(-20, 20)[:, None], np.array([0.0, 0.3, 0.7, 1.3, 2.1])
    yield from sg.semi_residuals(p, ms, ts)


@suite("sg.discrete_residuals", 1e-9, cases=lambda: [
       p for k in MODULI for p in _ksurfaces(k)])
def suite_discrete_sg_residuals(p):
    yield sg.discrete_sg_residual(p, np.arange(-10, 10)[:, None], np.arange(-10, 10))


def _perturbed(w: surfaces.HalfAngle) -> surfaces.HalfAngle:
    """The samples with s scaled by 1.01 and (c, s) renormalized."""
    s = 1.01 * w.s
    nrm = np.hypot(w.c, s)
    return surfaces.HalfAngle(c=w.c / nrm, s=s / nrm, dwdt=w.dwdt)


@suite("sg.perturbation_sensitivity", 1e-3, "gt",
       cases=lambda: [(_curves(0.6)[0], _ksurfaces(0.6)[1])])
def suite_sg_sensitivity(case):
    """A perturbed field (s scaled by 1.01, renormalized) must be detected."""
    p, pd = case
    c1, c2 = sg.semi_sg_coeffs(p)
    ms = np.arange(-5, 5)
    w0, w1 = sg._unstack(surfaces.half_angles(p, np.stack([ms, ms + 1]), 0.3))
    yield sg.semi_residuals_from(w0, _perturbed(w1), c1, c2)[0]
    wA, wB, wC, wD = sg.discrete_quad(pd, ms, 0)
    yield sg.discrete_sg_residual_from(_perturbed(wA), wB, wC, wD, sg.discrete_sg_coeff(pd))


# ---------------------------------------------------------------- surfaces --

def _all_curves():   # the twelve curve lattices over MODULI, k-major
    return [p for k in MODULI for p in _curves(k)]


# The suites below evaluate the closed forms once per window: sites m along
# the last axis, times t along the one before it.

_TIMES = np.array([[0.0], [0.37], [1.7]])
_FLOW_TIMES = np.array([[0.2], [1.1]])
_FLOW_MS = np.arange(-8, 8)


def _dot(a, b):   # dot products over the trailing axis of 3
    return (a * b).sum(axis=-1)


@suite("surfaces.edge_identity", 1e-10, cases=_all_curves)
def suite_surface_edges(p):
    g, b = surfaces._curve(p, np.arange(-20, 21), _TIMES)
    yield g[:, 1:] - g[:, :-1] - p.epsilon_sign * np.cross(b[:, 1:], b[:, :-1])


@suite("surfaces.constant_speed", 1e-10, cases=_all_curves)
def suite_surface_speed(p):
    g = surfaces.gamma_point(p, np.arange(-20, 21), _TIMES)
    yield np.linalg.norm(g[:, 1:] - g[:, :-1], axis=-1) - abs(p.edge_speed)


@suite("surfaces.binormal_angle_invariance", 1e-12, cases=_all_curves)
def suite_surface_torsion(p):
    sn, cn, dn = elliptic.jacobi(p.gamma_step, p.mod)
    b = surfaces.b_point(p, np.arange(-20, 21), _TIMES)
    yield _dot(b[:, :-1], b[:, 1:]) - (cn if p.family == "dn" else dn)


@suite("surfaces.flow_vs_finite_difference", 1e-6, cases=lambda: _curves(0.6))
def suite_surface_flow(p):
    """Closed-form velocity vs central differences (h = 1e-4)."""
    h = 1e-4
    ahead, behind = surfaces.gamma_point(p, _FLOW_MS, np.stack([_FLOW_TIMES + h, _FLOW_TIMES - h]))
    yield surfaces.flow_velocity(p, _FLOW_MS, _FLOW_TIMES) - (ahead - behind) / (2.0 * h)


@suite("surfaces.flow_binormal_orthogonality", 1e-10, cases=lambda: _curves(0.6))
def suite_surface_flow_orthogonality(p):
    yield _dot(surfaces.flow_velocity(p, _FLOW_MS, _FLOW_TIMES),
               surfaces.b_point(p, _FLOW_MS, _FLOW_TIMES))


@suite("surfaces.flow_components", 1e-10, cases=lambda: _curves(0.6))
def suite_surface_flow_components(p):
    """Tangential/normal flow components against the half-angle field."""
    rho = p.sigma * p.beta_rate * (1.0 if p.family == "dn" else p.mod.k)
    T, N, _ = surfaces.curve_frames(p, _FLOW_MS, _FLOW_TIMES)
    v = surfaces.flow_velocity(p, _FLOW_MS, _FLOW_TIMES)
    w = surfaces.flow_angle(p, _FLOW_MS, _FLOW_TIMES)
    yield _dot(v, T) - rho * w.c
    yield _dot(v, N) - rho * w.s


@suite("surfaces.field_solves_lattice_equations", 1e-9, cases=lambda: _curves(0.6))
def suite_solution_linkage(p):
    """The field carried by each surface solves the semi-discrete equations."""
    for t in (0.0, 0.45, 1.3):
        yield from sg.semi_residuals(p, np.arange(-12, 12), t)


@suite("surfaces.curvature_vs_field", 1e-10, cases=lambda: _curves(0.6))
def suite_surface_curvature(p):
    """Curvature equals +-(w_{m+2} - w_m)/2 at the sine/cosine level."""
    ts = np.array([0.0, 0.45])
    sgn = -1.0 if p.twisted else 1.0
    geo = frames.extract_geometry(*surfaces.curve_frames(p, np.arange(-8, 9), ts[:, None]))
    # half-angle samples at m = -8..9: sites m (first 16) and m + 2 (last 16)
    w = surfaces.half_angles(p, np.arange(-8, 10), ts[:, None])
    c, s = w.c, w.s
    yield geo.curvature_cos - (c[:, 2:] * c[:, :-2] + s[:, 2:] * s[:, :-2])
    yield geo.curvature_sin - sgn * (s[:, 2:] * c[:, :-2] - c[:, 2:] * s[:, :-2])


@functools.lru_cache(maxsize=None)
def _kaleidocycles():
    """(lattice, order, count, times) per closed linkage: ``count`` sites, each
    compared with the site one ``surfaces.kaleidocycle_period`` on."""
    return tuple([(surfaces.kaleidocycle_params(n), n, 2 * n + 4, (0.0, 0.3, 0.9, 1.4, 2.2))
                  for n in (3, 4, 5, 6, 8)]
                 + [(surfaces.kaleidocycle_params(4, family="cn"), 4, 8, (0.0, 0.3, 1.4))])


@suite("surfaces.kaleidocycle_closure", 1e-9, cases=_kaleidocycles)
def suite_kaleidocycle_closure(case):
    p, n, count, times = case
    period = surfaces.kaleidocycle_period(n, p.family)
    g = surfaces.gamma_point(p, np.arange(count + period), np.array(times)[:, None])
    yield np.linalg.norm(g[:, period:] - g[:, :count], axis=-1)


# --------------------------------------------------------------------- tau --

@suite("tau.matches_closed_forms", 1e-8, cases=_all_curves)
def suite_tau_equivalence(p):
    """The tau route against the closed forms of the same curve lattice."""
    ms, ts = np.arange(-12, 13), np.array([[0.0], [0.37], [1.1]])
    g1, b1 = tau.gamma_from_tau(p, ms, ts)
    g2, b2 = surfaces._curve(p, ms, ts)
    yield g1 - g2
    yield b1 - b2


@suite("tau.bilinear_relations", 1e-9, cases=lambda: _curves(0.6))
def suite_tau_bilinear(p):
    yield from tau.bilinear_checks(p, np.arange(-8, 8)[:, None], np.array([0.0, 0.45]))


@suite("tau.analytic_pairing_fd", 1e-6, cases=lambda: _curves(0.6))
def suite_tau_cauchy_riemann(p):
    yield tau.cauchy_riemann(p, np.array([-3, 0, 4]), 0.3)


@suite("tau.conjugation_symmetry", 1e-11, cases=lambda: _curves(0.6))
def suite_tau_conjugation(p):
    """The starred quartet entries equal numeric conjugates at real (lam, z):
    40 points (t, lam, z, m) per k = 0.6 curve lattice, with integer m in -6..6."""
    t, lam, z, m = _points(40, (0.0, -0.8, -0.5, -6.0), (1.5, 0.8, 0.5, 7.0))
    s = tau.tau_sample(p, np.floor(m).astype(int), t, lam=lam, z=z)
    scale = np.maximum(np.maximum(1.0, abs(s.f)), abs(s.g))
    yield abs(s.fstar - s.f.conjugate()) / scale
    yield abs(s.gstar - s.g.conjugate()) / scale


@suite("tau.F_real_positive", 1e-11, cases=lambda: _curves(0.6))
def suite_tau_F_reality(p):
    s = tau.tau_sample(p, np.arange(-8, 9)[:, None], 0.3, z=np.array([0.0, 0.25]))
    q = s.f * s.fstar + s.g * s.gstar
    yield abs(s.F.imag) / abs(s.F)
    yield abs(s.F - q) / abs(s.F)
    if (s.F.real <= 0.0).any():
        yield math.inf


@suite("tau.eta_consistency", 1e-12, cases=lambda: _curves(0.6))
def suite_tau_eta_consistency(p):
    """The closed form i R_m against z + Re(d log F / dz) / 2, from the curve's z
    and the theta quotient of the tau route."""
    ms = np.arange(-6, 7)
    z = surfaces._curve(p, ms, 0.4)[0][:, 2]
    dlog = tau.tau_sample(p, ms, 0.4).dlog
    yield tau.i_r_m(p, ms, 0.4) - (z + 0.5 * dlog.real)


# ------------------------------------------------------------------- ksurf --

@suite("ksurf.definition_axioms", 1e-10, cases=lambda: _ksurfaces(0.6))
def suite_ksurf_axioms(p):
    grid = ksurf.k_grid(p, range(-10, 10), range(-10, 10))
    yield list(grid.invariant_residuals().values())


@suite("ksurf.edge_identities", 1e-10, cases=lambda: _ksurfaces(0.6))
def suite_ksurf_edges(p):
    grid = ksurf.k_grid(p, range(-10, 11), range(-10, 11))
    F, N = grid.points, grid.normals
    res_m = F[1:, :-1] - F[:-1, :-1] - np.cross(N[1:, :-1], N[:-1, :-1])
    res_n = F[:-1, 1:] - F[:-1, :-1] + np.cross(N[:-1, 1:], N[:-1, :-1])
    yield np.linalg.norm(res_m, axis=-1)
    yield np.linalg.norm(res_n, axis=-1)


@suite("ksurf.direction_torsions", 1e-12, cases=lambda: _ksurfaces(0.6))
def suite_ksurf_torsions(p):
    _, cn, dn = elliptic.jacobi(np.array([p.gamma_step, p.delta_step]), p.mod)
    tg, td = cn if p.family == "dn" else dn
    G = ksurf.k_grid(p, range(-8, 9), range(-8, 9)).normals
    yield _dot(G[:-1, :-1], G[1:, :-1]) - tg
    yield _dot(G[:-1, :-1], G[:-1, 1:]) - td


@functools.lru_cache(maxsize=None)
def _compat_cases():
    """(lattice, nu1, nu2) per k = 0.6 K-surface lattice (dn, cn): its torsion
    angles, which are the rotation angles of the other family: atan2(sn, cn)
    for dn, atan2(k sn, dn) for cn."""
    return tuple((p, *(elliptic._lattice_step(p.mod, other, step, False)[0]
                       for step in (p.gamma_step, p.delta_step)))
                 for p, other in zip(_ksurfaces(0.6), ("cn", "dn")))


@suite("ksurf.compatibility_on_solutions", 1e-11, cases=_compat_cases)
def suite_ksurf_compatibility(case):
    """Zero-curvature residual on solution corners; same-sign and mixed-sign cases."""
    p, nu1, nu2 = case
    # mixed signs pair with the opposite torsion angle in the n-direction
    signs = ((nu2, ("+", "+")), (-nu2, ("+", "-")), (nu2, ("-", "-")), (-nu2, ("-", "+")))
    quads = sg.discrete_quad(p, np.arange(-6, 6)[:, None], np.arange(-6, 6))
    yield [ksurf.compat_matrices(*quads, nu1, nu, sign) for nu, sign in signs]


@suite("ksurf.compatibility_sensitivity", 1e-3, "gt", cases=lambda: _compat_cases()[:1])
def suite_ksurf_compat_sensitivity(case):
    """Every perturbed quad must be detected: each quad is its own residual."""
    p, nu1, nu2 = case   # the dn lattice
    wA, wB, wC, wD = sg.discrete_quad(p, np.arange(-4, 4), 0)
    yield from np.ravel(ksurf.compat_matrices(_perturbed(wA), wB, wC, wD, nu1, nu2, ("+", "+")))


@suite("ksurf.compat_angle_identity", 1e-10, cases=_compat_cases)
def suite_ksurf_angle_identity(case):
    """-sin(V) = tan(nu1/2) tan(nu2/2) sin(U) on solution corners."""
    p, nu1, nu2 = case
    t1, t2 = (math.sin(nu) / (1.0 + math.cos(nu)) for nu in (nu1, nu2))
    zA, zB, zC, zD = (w.quarter_exponential() for w in
                      sg.discrete_quad(p, np.arange(-6, 6)[:, None], np.arange(-6, 6)))
    sinU = (zA * zB * zC * zD).imag
    sinV = (zA * zB * zC.conjugate() * zD.conjugate()).imag
    yield -sinV - t1 * t2 * sinU


@functools.lru_cache(maxsize=None)
def _periodic_ksurfaces():   # the six K-surfaces of ksurf.periodic_cases(3)
    return tuple(ksurf.periodic_cases(3).values())


@suite("ksurf.periodicity_cases", 1e-9, cases=_periodic_ksurfaces)
def suite_ksurf_periodicity(p):
    """Each shift 0 <= dm <= 6, |dn| <= 6 that ``closure_defect`` accepts (one of
    each +- pair, not (0, 0)) maps an 8 x 8 window, in one k_point call, to itself."""
    dm, dn = np.arange(7)[:, None], np.arange(-6, 7)
    accepted = (p.closure_defect(dm, dn) < 1e-9) & ((dm > 0) | (dn > 0))
    F = ksurf.k_point(p, np.arange(14)[:, None], np.arange(-6, 14))[0]
    for a, b in zip(*np.nonzero(accepted)):   # the shift (a, b - 6)
        yield F[a:a + 8, b:b + 8] - F[:8, 6:14]


def run_suites(which="all") -> list[SuiteResult]:
    """Run every registered suite ("all") or the identity corpus ("identities")."""
    return [fn() for fn in ALL_SUITES if which != "identities" or fn.identity]
