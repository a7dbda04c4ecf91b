"""Self-contained verification suites over fixed grids and seeds.

Each suite measures the worst residual of one family of identities or
geometric constraints and compares it against a fixed tolerance.  Suites are
deterministic (seeded RNG, fixed grids) so reports are byte-stable.  Suites
whose point is sensitivity (a broken input must be detected) use comparison
"gt": they pass when the residual EXCEEDS the threshold.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import elliptic, frames, ksurf, sg, surfaces, tau, theta

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
        d = asdict(self)
        d["pass"] = self.passed
        return d


def _lt(name: str, res: float, tol: float) -> SuiteResult:
    return SuiteResult(name=name, max_residual=float(res), tolerance=tol, comparison="lt")


def _gt(name: str, res: float, tol: float) -> SuiteResult:
    return SuiteResult(name=name, max_residual=float(res), tolerance=tol, comparison="gt")


# ---------------------------------------------------------------- elliptic --

def suite_legendre() -> SuiteResult:
    worst = max(elliptic.make_modulus(k).legendre_residual() for k in MODULI_WIDE)
    return _lt("elliptic.legendre_relation", worst, 1e-12)


def suite_jacobi_identities() -> SuiteResult:
    worst = 0.0
    for k in MODULI_WIDE:
        mod = elliptic.make_modulus(k)
        u = np.linspace(-4.0 * mod.K, 4.0 * mod.K, 81)
        sn, cn, dn = elliptic.jacobi(u, mod)
        worst = max(worst,
                    float(np.abs(sn * sn + cn * cn - 1.0).max()),
                    float(np.abs(dn * dn + mod.m * sn * sn - 1.0).max()))
    return _lt("elliptic.pythagorean_identities", worst, 1e-12)


def suite_jacobi_vs_theta() -> SuiteResult:
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in MODULI_WIDE:
        mod = elliptic.make_modulus(k)
        for u in rng.uniform(-4.0 * mod.K, 4.0 * mod.K, 25):
            s1, c1, d1 = elliptic.jacobi(float(u), mod)
            s2, c2, d2 = theta.jacobi_complex(float(u), mod)
            worst = max(worst, abs(s1 - s2), abs(c1 - c2), abs(d1 - d2))
    return _lt("elliptic.jacobi_vs_theta_oracle", worst, 1e-11)


def suite_addition_formulae() -> SuiteResult:
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in MODULI:
        mod = elliptic.make_modulus(k)
        for _ in range(70):
            u, g = rng.uniform(-2.0 * mod.K, 2.0 * mod.K, 2)
            su, cu, du = elliptic.jacobi(u, mod)
            sgm, cg, dg = elliptic.jacobi(g, mod)
            den = 1.0 - mod.m * sgm * sgm * su * su
            s2, c2, d2 = elliptic.jacobi(u + g, mod)
            worst = max(worst,
                        abs(s2 - (cg * dg * su + sgm * cu * du) / den),
                        abs(c2 - (cg * cu - sgm * dg * su * du) / den),
                        abs(d2 - (dg * du - mod.m * sgm * cg * su * cu) / den))
    return _lt("elliptic.addition_formulae", worst, 1e-11)


def suite_elliptic_identity_corpus() -> SuiteResult:
    """Nine product identities of shifted-argument triples at random (gamma, psi)."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in MODULI:
        mod = elliptic.make_modulus(k)
        k2 = mod.m
        for _ in range(200):
            g, psi = rng.uniform(-2.0 * mod.K, 2.0 * mod.K, 2)
            s0, c0, d0 = elliptic.jacobi(psi, mod)
            s1, c1, d1 = elliptic.jacobi(psi + g, mod)
            sm, cm, dm = elliptic.jacobi(psi - g, mod)
            sg_, cg, dg = elliptic.jacobi(g, mod)
            rs = (
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
            worst = max(worst, max(abs(r) for r in rs))
    return _lt("elliptic.shifted_identity_corpus", worst, 1e-11)


def suite_sn2_integral() -> SuiteResult:
    from scipy.integrate import quad
    worst = 0.0
    for k in MODULI:
        mod = elliptic.make_modulus(k)
        for u in np.linspace(-4.0 * mod.K, 4.0 * mod.K, 17):
            ref = quad(lambda x: elliptic.jacobi(x, mod)[0] ** 2, 0.0, float(u), limit=200)[0]
            worst = max(worst, abs(float(elliptic.sn2_integral(float(u), mod)) - ref))
    return _lt("elliptic.sn2_integral_vs_quadrature", worst, 1e-10)


# ------------------------------------------------------------------- theta --

def _tp(mod, mult=1):
    return theta.ThetaParams(mult * mod.taup)


def suite_theta_addition() -> SuiteResult:
    """Four quadratic addition identities, both compound signs."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for k in (0.3, 0.7):
        mod = elliptic.make_modulus(k)
        p = _tp(mod)
        T = mod.taup.imag

        def th(j, v):
            return theta.theta_j(j, v, p)

        for _ in range(100):
            x = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4) * T)
            y = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4) * T)
            t30, t00, t20 = th(3, 0), th(0, 0), th(2, 0)
            for s in (1.0, -1.0):
                pairs = (
                    (th(3, x + s * y) * th(0, x - s * y) * t30 * t00,
                     th(3, x) * th(0, x) * th(3, y) * th(0, y)
                     - s * th(1, x) * th(2, x) * th(1, y) * th(2, y)),
                    (th(1, x + s * y) * th(2, x - s * y) * t30 * t00,
                     th(1, x) * th(2, x) * th(3, y) * th(0, y)
                     + s * th(3, x) * th(0, x) * th(1, y) * th(2, y)),
                    (th(1, x + s * y) * th(3, x - s * y) * t20 * t00,
                     th(1, x) * th(3, x) * th(2, y) * th(0, y)
                     + s * th(2, x) * th(0, x) * th(1, y) * th(3, y)),
                    (th(2, x + s * y) * th(0, x - s * y) * t20 * t00,
                     th(2, x) * th(0, x) * th(2, y) * th(0, y)
                     - s * th(1, x) * th(3, x) * th(1, y) * th(3, y)),
                )
                for lhs, rhs in pairs:
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return _lt("theta.addition_identities", worst, 1e-10)


def suite_theta_lattice_doubling() -> SuiteResult:
    """Landen-type identities between the taup and 2 taup lattices at shifted arguments."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for k in (0.3, 0.6):
        mod = elliptic.make_modulus(k)
        p1, p2 = _tp(mod), _tp(mod, 2)
        den = mod.k * mod.Kp
        for _ in range(100):
            psi = rng.uniform(-2.5, 2.5)
            lam = rng.uniform(-1.0, 1.0)
            z = rng.uniform(-0.6, 0.6)
            v = (psi - mod.K) / (2j * mod.Kp)
            vp = v + (lam + 1j * z) / den
            vm = v + (-lam + 1j * z) / den
            vz = v + 1j * z / den
            lv = lam / den

            def t(j, w, pp):
                return theta.theta_j(j, w, pp)

            checks = []
            for w in (vp, vm):
                checks += [
                    (t(3, w, p1) * t(3, 0, p1), t(3, w, p2) ** 2 + t(2, w, p2) ** 2),
                    (t(0, w, p1) * t(0, 0, p1), t(3, w, p2) ** 2 - t(2, w, p2) ** 2),
                    (t(2, w, p1) * t(2, 0, p1), 2.0 * t(2, w, p2) * t(3, w, p2)),
                ]
            checks += [
                (t(3, vz, p1) * t(3, lv, p1),
                 t(3, vp, p2) * t(3, vm, p2) + t(2, vp, p2) * t(2, vm, p2)),
                (t(0, vz, p1) * t(0, lv, p1),
                 t(3, vp, p2) * t(3, vm, p2) - t(2, vp, p2) * t(2, vm, p2)),
                (t(2, vz, p1) * t(2, lv, p1),
                 t(2, vp, p2) * t(3, vm, p2) + t(3, vp, p2) * t(2, vm, p2)),
                (t(1, vz, p1) * t(1, lv, p1),
                 t(3, vp, p2) * t(2, vm, p2) - t(2, vp, p2) * t(3, vm, p2)),
            ]
            for lhs, rhs in checks:
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return _lt("theta.lattice_doubling_identities", worst, 1e-10)


def suite_theta_jacobi_quotients() -> SuiteResult:
    """The three quotient formulas tying thetas at v = (psi-K)/(2iK') to sn, cn, dn."""
    rng = np.random.default_rng(106)
    worst = 0.0
    for k in MODULI:
        mod = elliptic.make_modulus(k)
        p = _tp(mod)
        for _ in range(100):
            psi = rng.uniform(-3.5, 3.5)
            v = (psi - mod.K) / (2j * mod.Kp)
            sn, cn, dn = elliptic.jacobi(psi, mod)
            t3v, t0v = theta.theta_j(3, v, p), theta.theta_j(0, v, p)
            t1v, t2v = theta.theta_j(1, v, p), theta.theta_j(2, v, p)
            t30, t00 = theta.theta_j(3, 0, p), theta.theta_j(0, 0, p)
            t20 = theta.theta_j(2, 0, p)
            worst = max(worst,
                        abs(t0v * t30 / (t3v * t00) - sn),
                        abs(t1v * t20 / (t3v * t00) - 1j * cn),
                        abs(t2v * t20 / (t3v * t30) - dn))
    return _lt("theta.jacobi_quotients", worst, 1e-10)


def suite_weierstrass_scalars() -> SuiteResult:
    """p(omega/2) = e1 + 1, both periods, and the two zeta-scalar relations."""
    from scipy.integrate import quad
    worst = 0.0
    for k in MODULI:
        mod = elliptic.make_modulus(k)
        wc = theta.weierstrass_constants(mod)
        om = wc.omega
        worst = max(worst, abs(theta.weierstrass_p(om / 2.0, mod) - (wc.e1 + 1.0)))
        z0 = 0.213 + 0.11j
        worst = max(worst, abs(theta.weierstrass_p(z0 + 2.0 * om, mod)
                               - theta.weierstrass_p(z0, mod)))
        worst = max(worst, abs(theta.weierstrass_p(z0 + 2.0 * wc.omegap, mod)
                               - theta.weierstrass_p(z0, mod)))
        # zeta(omega/2) - zeta(omega)/2 = k via the one permitted quadrature
        zom = wc.zeta_omega_over_omega * om
        integral = quad(lambda x: theta.weierstrass_p(x, mod).real, om / 2.0, om,
                        limit=200)[0]
        worst = max(worst, abs(zom + integral - 0.5 * zom - mod.k))
        # p(omega/2) + zeta(omega)/omega = 2 E'/K'
        worst = max(worst, abs((wc.e1 + 1.0) + wc.zeta_omega_over_omega
                               - 2.0 * mod.Ep / mod.Kp))
        # alternative closed form of the zeta scalar
        alt = math.pi / (mod.K * mod.Kp) - 2.0 * mod.E / mod.K + (1.0 - wc.e1)
        worst = max(worst, abs(alt - wc.zeta_omega_over_omega))
    return _lt("theta.weierstrass_scalars", worst, 1e-10)


def suite_theta_modular() -> SuiteResult:
    """Imaginary transformation theta_3(v/tau | tau') = exp(pi i (v^2/tau - 1/4)) sqrt(tau) theta_3(v|tau)."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for k in MODULI:
        mod = elliptic.make_modulus(k)
        pt = theta.ThetaParams(mod.tau)
        ptp = _tp(mod)
        for _ in range(60):
            v = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.25, 0.25))
            lhs = theta.theta_j(3, v / mod.tau, ptp)
            rhs = (cmath.exp(1j * math.pi * (v * v / mod.tau - 0.25))
                   * cmath.sqrt(mod.tau) * theta.theta_j(3, v, pt))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return _lt("theta.modular_identity", worst, 1e-9)


# ---------------------------------------------------------------------- sg --

def _semi_params(k, family):
    mod = elliptic.make_modulus(k)
    return sg.SemiDiscreteParams(mod=mod, Omega=0.23, A=0.31, family=family)


def suite_semi_sg_residuals() -> SuiteResult:
    worst = 0.0
    for k in MODULI_WIDE:
        for family in sg.FAMILIES:
            p = _semi_params(k, family)
            for m in range(-20, 20):
                for t in (0.0, 0.3, 0.7, 1.3, 2.1):
                    r1, r2 = sg.semi_residuals(p, m, t)
                    worst = max(worst, abs(r1), abs(r2))
    return _lt("sg.semi_discrete_residuals", worst, 1e-10)


def suite_discrete_sg_residuals() -> SuiteResult:
    worst = 0.0
    for k in MODULI:
        mod = elliptic.make_modulus(k)
        for family in sg.FAMILIES:
            p = sg.DiscreteParams(mod=mod, Omega=0.23, P=0.17, family=family)
            for m in range(-10, 10):
                for n in range(-10, 10):
                    worst = max(worst, abs(sg.discrete_sg_residual(p, m, n)))
    return _lt("sg.discrete_residuals", worst, 1e-9)


def suite_sg_sensitivity() -> SuiteResult:
    """A perturbed field (s scaled by 1.01, renormalized) must be detected."""
    p = _semi_params(0.6, "dn")
    c1, c2 = sg.semi_sg_coeffs(p)
    detected = 0.0
    for m in range(-5, 5):
        w0, w1 = sg.semi_sample(p, m, 0.3), sg.semi_sample(p, m + 1, 0.3)
        s = 1.01 * w1.s
        nrm = math.hypot(w1.c, s)
        w1p = sg.HalfAngle(c=w1.c / nrm, s=s / nrm, dwdt=w1.dwdt)
        r1, _ = sg.semi_residuals_from(w0, w1p, c1, c2)
        detected = max(detected, abs(r1))
    mod = elliptic.make_modulus(0.6)
    pd = sg.DiscreteParams(mod=mod, Omega=0.23, P=0.17, family="cn")
    coeff = sg.discrete_sg_coeff(pd)
    detected_d = 0.0
    for m in range(-5, 5):
        wA = sg.discrete_sample(pd, m + 1, 1)
        s = 1.01 * wA.s
        nrm = math.hypot(wA.c, s)
        wAp = sg.HalfAngle(c=wA.c / nrm, s=s / nrm)
        r = sg.discrete_sg_residual_from(wAp, sg.discrete_sample(pd, m, 0),
                                         sg.discrete_sample(pd, m + 1, 0),
                                         sg.discrete_sample(pd, m, 1), coeff)
        detected_d = max(detected_d, abs(r))
    return _gt("sg.perturbation_sensitivity", min(detected, detected_d), 1e-3)


# ---------------------------------------------------------------- surfaces --

def _all_surface_params(k=0.6, gamma=0.8, beta=1.0):
    mod = elliptic.make_modulus(k)
    out = []
    for family in ("dn", "cn"):
        for twisted in (False, True):
            sign = "-" if twisted else "+"
            out.append(surfaces.SurfaceParams(mod=mod, family=family, gamma_step=gamma,
                                              beta_rate=beta, twisted=twisted,
                                              frame_sign=sign))
    return out


# The suites below evaluate the closed forms once per (params, t) window and
# then reduce site by site: np.linalg.norm / np.dot of one 3-vector can differ
# in the last bit from an axis-wise reduction, and the report prints every bit.

def suite_surface_edges() -> SuiteResult:
    worst = 0.0
    ms = np.arange(-20, 21)
    for k in MODULI:
        for p in _all_surface_params(k=k):
            for t in (0.0, 0.37, 1.7):
                g, b = surfaces.gamma_point(p, ms, t), surfaces.b_point(p, ms, t)
                res = g[1:] - g[:-1] - p.epsilon_sign * np.cross(b[1:], b[:-1])
                worst = max(worst, float(np.abs(res).max()))
    return _lt("surfaces.edge_identity", worst, 1e-10)


def suite_surface_speed() -> SuiteResult:
    worst = 0.0
    ms = np.arange(-20, 21)
    for k in MODULI:
        for p in _all_surface_params(k=k):
            speed = abs(p.edge_speed_signed())
            for t in (0.0, 0.37, 1.7):
                g = surfaces.gamma_point(p, ms, t)
                for e in g[1:] - g[:-1]:
                    worst = max(worst, abs(float(np.linalg.norm(e)) - speed))
    return _lt("surfaces.constant_speed", worst, 1e-10)


def suite_surface_torsion() -> SuiteResult:
    worst = 0.0
    ms = np.arange(-20, 21)
    for k in MODULI:
        for p in _all_surface_params(k=k):
            sn, cn, dn = elliptic.jacobi(p.gamma_step, p.mod)
            target = cn if p.family == "dn" else dn
            for t in (0.0, 0.37, 1.7):
                b = surfaces.b_point(p, ms, t)
                for b0, b1 in zip(b[:-1], b[1:]):
                    worst = max(worst, abs(float(np.dot(b0, b1)) - target))
    return _lt("surfaces.binormal_angle_invariance", worst, 1e-12)


def suite_surface_flow() -> SuiteResult:
    """Closed-form velocity vs central differences (h = 1e-4)."""
    worst = 0.0
    h = 1e-4
    ms = np.arange(-8, 8)
    for p in _all_surface_params():
        for t in (0.2, 1.1):
            fd = (surfaces.gamma_point(p, ms, t + h)
                  - surfaces.gamma_point(p, ms, t - h)) / (2.0 * h)
            for m, fd_m in zip(ms, fd):
                v = surfaces.flow_velocity(p, int(m), t)
                worst = max(worst, float(np.abs(v - fd_m).max()))
    return _lt("surfaces.flow_vs_finite_difference", worst, 1e-6)


def suite_surface_flow_orthogonality() -> SuiteResult:
    worst = 0.0
    ms = np.arange(-8, 8)
    for p in _all_surface_params():
        for t in (0.2, 1.1):
            b = surfaces.b_point(p, ms, t)
            for m, b_m in zip(ms, b):
                v = surfaces.flow_velocity(p, int(m), t)
                worst = max(worst, abs(float(np.dot(v, b_m))))
    return _lt("surfaces.flow_binormal_orthogonality", worst, 1e-10)


def suite_surface_flow_components() -> SuiteResult:
    """Tangential/normal flow components against the half-angle field."""
    worst = 0.0
    ms = range(-8, 8)
    for p in _all_surface_params():
        rho = p.beta_rate * (1.0 if p.family == "dn" else p.mod.k)
        for t in (0.2, 1.1):
            for m, fr in zip(ms, surfaces.snapshot(p, ms, t).frames):
                v = surfaces.flow_velocity(p, m, t)
                w = surfaces.flow_angle(p, m, t)
                worst = max(worst,
                            abs(float(np.dot(v, fr.T)) - p.sigma * rho * w.c),
                            abs(float(np.dot(v, fr.N)) - p.sigma * rho * w.s))
    return _lt("surfaces.flow_components", worst, 1e-10)


def suite_solution_linkage() -> SuiteResult:
    """The field carried by each surface solves the semi-discrete equations."""
    worst = 0.0
    for p in _all_surface_params():
        sp = sg.SemiDiscreteParams(
            mod=p.mod, Omega=p.gamma_step / (4.0 * p.mod.K),
            A=p.beta_rate / (4.0 * p.mod.K), family=p.family)
        c1, c2 = sg.semi_sg_coeffs(sp)
        for t in (0.0, 0.45, 1.3):
            h = [sg.HalfAngle(c=c, s=s, dwdt=d)
                 for c, s, d in zip(*surfaces.half_angles(p, np.arange(-12, 13), t))]
            for h0, h1 in zip(h[:-1], h[1:]):
                r1, r2 = sg.semi_residuals_from(h0, h1, c1, c2)
                worst = max(worst, abs(r1), abs(r2))
    return _lt("surfaces.field_solves_lattice_equations", worst, 1e-9)


def suite_surface_curvature() -> SuiteResult:
    """Curvature equals +-(w_{m+2} - w_m)/2 at the sine/cosine level."""
    worst = 0.0
    for p in _all_surface_params():
        sgn = -1.0 if p.twisted else 1.0
        for t in (0.0, 0.45):
            frames_seq = surfaces.snapshot(p, range(-8, 9), t).frames
            geo = frames.extract_geometry(frames_seq)
            for j, m in enumerate(range(-8, 8)):
                h0 = surfaces.half_angle_at(p, m, t)
                h2 = surfaces.half_angle_at(p, m + 2, t)
                cosd = h2.c * h0.c + h2.s * h0.s
                sind = h2.s * h0.c - h2.c * h0.s
                worst = max(worst,
                            abs(geo.curvature_cos[j] - cosd),
                            abs(geo.curvature_sin[j] - sgn * sind))
    return _lt("surfaces.curvature_vs_field", worst, 1e-10)


def suite_kaleidocycle_closure() -> SuiteResult:
    worst = 0.0
    # dn family: period 2n; cn family: period 2 regardless of n
    cases = [(surfaces.kaleidocycle_params(n), 2 * n, 2 * n + 4, (0.0, 0.3, 0.9, 1.4, 2.2))
             for n in (3, 4, 5, 6, 8)]
    cases.append((surfaces.kaleidocycle_params(4, family="cn"), 2, 8, (0.0, 0.3, 1.4)))
    for p, period, count, times in cases:
        ms = np.arange(count)
        for t in times:
            d = surfaces.gamma_point(p, ms + period, t) - surfaces.gamma_point(p, ms, t)
            for d_m in d:
                worst = max(worst, float(np.linalg.norm(d_m)))
    return _lt("surfaces.kaleidocycle_closure", worst, 1e-9)


# --------------------------------------------------------------------- tau --

def _tau_contexts(k=0.6, gamma=0.8, beta=1.0):
    mod = elliptic.make_modulus(k)
    return [tau.TauContext(mod=mod, family=f, gamma_step=gamma, beta_rate=beta, twisted=tw)
            for f in ("dn", "cn") for tw in (False, True)]


def suite_tau_equivalence() -> SuiteResult:
    worst = 0.0
    for k in MODULI:
        for ctx in _tau_contexts(k=k):
            sp = surfaces.SurfaceParams(
                mod=ctx.mod, family=ctx.family, gamma_step=ctx.gamma_step,
                beta_rate=ctx.beta_rate, twisted=ctx.twisted,
                frame_sign="-" if ctx.twisted else "+")
            ms = np.arange(-12, 13)
            for t in (0.0, 0.37, 1.1):
                g, b = surfaces.gamma_point(sp, ms, t), surfaces.b_point(sp, ms, t)
                for m, g2, b2 in zip(ms, g, b):
                    g1, b1 = tau.gamma_from_tau(ctx, int(m), t)
                    worst = max(worst, float(np.abs(g1 - g2).max()),
                                float(np.abs(b1 - b2).max()))
    return _lt("tau.matches_closed_forms", worst, 1e-8)


def suite_tau_bilinear() -> SuiteResult:
    worst = 0.0
    for ctx in _tau_contexts():
        for m in range(-8, 8):
            for t in (0.0, 0.45):
                fh, fr, _ = tau.bilinear_checks(ctx, m, t)
                worst = max(worst, fh, fr)
    return _lt("tau.bilinear_relations", worst, 1e-9)


def suite_tau_cauchy_riemann() -> SuiteResult:
    worst = 0.0
    for ctx in _tau_contexts():
        for m in (-3, 0, 4):
            _, _, cr = tau.bilinear_checks(ctx, m, 0.3)
            worst = max(worst, cr)
    return _lt("tau.analytic_pairing_fd", worst, 1e-6)


def suite_tau_conjugation() -> SuiteResult:
    """The starred quartet entries equal numeric conjugates at real (lam, z)."""
    rng = np.random.default_rng(108)
    worst = 0.0
    for ctx in _tau_contexts():
        for _ in range(40):
            m = int(rng.integers(-6, 7))
            t = float(rng.uniform(0, 1.5))
            lam = float(rng.uniform(-0.8, 0.8))
            z = float(rng.uniform(-0.5, 0.5))
            s = tau.tau_sample(ctx, m, t, lam=lam, z=z)
            scale = max(1.0, abs(s.f), abs(s.g))
            worst = max(worst,
                        abs(s.fstar - s.f.conjugate()) / scale,
                        abs(s.gstar - s.g.conjugate()) / scale)
    return _lt("tau.conjugation_symmetry", worst, 1e-11)


def suite_tau_F_reality() -> SuiteResult:
    worst = 0.0
    for ctx in _tau_contexts():
        for m in range(-8, 9):
            for z in (0.0, 0.25):
                s = tau.tau_sample(ctx, m, 0.3, z=z)
                q = s.f * s.fstar + s.g * s.gstar
                worst = max(worst,
                            abs(s.F.imag) / abs(s.F),
                            abs(s.F - q) / abs(s.F))
                if s.F.real <= 0.0:
                    worst = math.inf
    return _lt("tau.F_real_positive", worst, 1e-11)


def suite_tau_eta_consistency() -> SuiteResult:
    worst = 0.0
    for ctx in _tau_contexts():
        den = ctx.chain_den
        for m in range(-6, 7):
            lhs = -(ctx.mod.Ep / den) * tau.eta_m(ctx, m, 0.4)
            worst = max(worst, abs(lhs - tau.i_r_m(ctx, m, 0.4)))
    return _lt("tau.eta_consistency", worst, 1e-12)


# ------------------------------------------------------------------- ksurf --

def _kparams(k=0.6, family="dn", gamma=0.8, delta=0.55):
    return ksurf.KParams(mod=elliptic.make_modulus(k), family=family,
                         gamma_step=gamma, delta_step=delta)


def suite_ksurf_axioms() -> SuiteResult:
    worst = 0.0
    for family in ("dn", "cn"):
        grid = ksurf.k_grid(_kparams(family=family), range(-10, 10), range(-10, 10))
        rep = grid.invariant_residuals()
        worst = max(worst, rep["planarity"], rep["opposite_edges"], rep["length_spread"])
    return _lt("ksurf.definition_axioms", worst, 1e-10)


def suite_ksurf_edges() -> SuiteResult:
    worst = 0.0
    for family in ("dn", "cn"):
        grid = ksurf.k_grid(_kparams(family=family), range(-10, 11), range(-10, 11))
        F, N = grid.points, grid.normals
        res_m = F[1:, :-1] - F[:-1, :-1] - np.cross(N[1:, :-1], N[:-1, :-1])
        res_n = F[:-1, 1:] - F[:-1, :-1] + np.cross(N[:-1, 1:], N[:-1, :-1])
        for rm, rn in zip(res_m.reshape(-1, 3), res_n.reshape(-1, 3)):
            worst = max(worst, float(np.linalg.norm(rm)), float(np.linalg.norm(rn)))
    return _lt("ksurf.edge_identities", worst, 1e-10)


def suite_ksurf_torsions() -> SuiteResult:
    worst = 0.0
    for family in ("dn", "cn"):
        p = _kparams(family=family)
        sng, cng, dng = elliptic.jacobi(p.gamma_step, p.mod)
        snd, cnd, dnd = elliptic.jacobi(p.delta_step, p.mod)
        tg = cng if family == "dn" else dng
        td = cnd if family == "dn" else dnd
        G = ksurf.k_grid(p, range(-8, 9), range(-8, 9)).normals
        sites = (G[:-1, :-1], G[1:, :-1], G[:-1, 1:])
        for N, Nm, Nn in zip(*(x.reshape(-1, 3) for x in sites)):
            worst = max(worst, abs(float(np.dot(N, Nm)) - tg),
                        abs(float(np.dot(N, Nn)) - td))
    return _lt("ksurf.direction_torsions", worst, 1e-12)


def _compat_setup(family):
    mod = elliptic.make_modulus(0.6)
    Om, P = 0.13, 0.19
    p = sg.DiscreteParams(mod=mod, Omega=Om, P=P, family=family)
    g, d = 4.0 * mod.K * Om, 4.0 * mod.K * P
    sng, cng, dng = elliptic.jacobi(g, mod)
    snd, cnd, dnd = elliptic.jacobi(d, mod)
    if family == "dn":
        nu1, nu2 = math.atan2(sng, cng), math.atan2(snd, cnd)
    else:
        nu1 = math.atan2(mod.k * sng, dng)
        nu2 = math.atan2(mod.k * snd, dnd)
    return p, nu1, nu2


def suite_ksurf_compatibility() -> SuiteResult:
    """Zero-curvature residual on solution corners; same-sign and mixed-sign cases."""
    worst = 0.0
    for family in ("dn", "cn"):
        p, nu1, nu2 = _compat_setup(family)
        for m in range(-6, 6):
            for n in range(-6, 6):
                corners = (sg.discrete_sample(p, m + 1, n + 1),
                           sg.discrete_sample(p, m, n),
                           sg.discrete_sample(p, m + 1, n),
                           sg.discrete_sample(p, m, n + 1))
                for s in ("+", "-"):
                    worst = max(worst, ksurf.compat_matrices(*corners, nu1, nu2, (s, s)))
                    # mixed signs pair with the opposite torsion angle in the n-direction
                    other = "-" if s == "+" else "+"
                    worst = max(worst,
                                ksurf.compat_matrices(*corners, nu1, -nu2, (s, other)))
    return _lt("ksurf.compatibility_on_solutions", worst, 1e-11)


def suite_ksurf_compat_sensitivity() -> SuiteResult:
    family = "dn"
    p, nu1, nu2 = _compat_setup(family)
    detected = math.inf
    for m in range(-4, 4):
        wA = sg.discrete_sample(p, m + 1, 1)
        s = 1.01 * wA.s
        nrm = math.hypot(wA.c, s)
        wAp = sg.HalfAngle(c=wA.c / nrm, s=s / nrm)
        r = ksurf.compat_matrices(wAp, sg.discrete_sample(p, m, 0),
                                  sg.discrete_sample(p, m + 1, 0),
                                  sg.discrete_sample(p, m, 1), nu1, nu2, ("+", "+"))
        detected = min(detected, r)
    return _gt("ksurf.compatibility_sensitivity", detected, 1e-3)


def suite_ksurf_angle_identity() -> SuiteResult:
    """-sin(V) = tan(nu1/2) tan(nu2/2) sin(U) on solution corners."""
    worst = 0.0
    for family in ("dn", "cn"):
        p, nu1, nu2 = _compat_setup(family)
        t1 = ksurf.tan_half(math.sin(nu1), math.cos(nu1))
        t2 = ksurf.tan_half(math.sin(nu2), math.cos(nu2))
        for m in range(-6, 6):
            for n in range(-6, 6):
                zA = sg.discrete_sample(p, m + 1, n + 1).quarter_exponential()
                zB = sg.discrete_sample(p, m, n).quarter_exponential()
                zC = sg.discrete_sample(p, m + 1, n).quarter_exponential()
                zD = sg.discrete_sample(p, m, n + 1).quarter_exponential()
                sinU = (zA * zB * zC * zD).imag
                sinV = (zA * zB * zC.conjugate() * zD.conjugate()).imag
                worst = max(worst, abs(-sinV - t1 * t2 * sinU))
    return _lt("ksurf.compat_angle_identity", worst, 1e-10)


def suite_ksurf_periodicity() -> SuiteResult:
    worst = 0.0
    for case in ("1a", "1b", "1c", "2a", "2b", "2c"):
        rep = ksurf.k_periodicity(case, order=3, window=8)
        worst = max(worst, rep["max_defect"])
    return _lt("ksurf.periodicity_cases", worst, 1e-9)


IDENTITY_SUITES = (
    suite_theta_addition,
    suite_theta_lattice_doubling,
    suite_theta_jacobi_quotients,
    suite_weierstrass_scalars,
    suite_theta_modular,
    suite_elliptic_identity_corpus,
    suite_addition_formulae,
)

ALL_SUITES = (
    suite_legendre,
    suite_jacobi_identities,
    suite_jacobi_vs_theta,
    suite_addition_formulae,
    suite_elliptic_identity_corpus,
    suite_sn2_integral,
    suite_theta_addition,
    suite_theta_lattice_doubling,
    suite_theta_jacobi_quotients,
    suite_weierstrass_scalars,
    suite_theta_modular,
    suite_semi_sg_residuals,
    suite_discrete_sg_residuals,
    suite_sg_sensitivity,
    suite_surface_edges,
    suite_surface_speed,
    suite_surface_torsion,
    suite_surface_flow,
    suite_surface_flow_orthogonality,
    suite_surface_flow_components,
    suite_solution_linkage,
    suite_surface_curvature,
    suite_kaleidocycle_closure,
    suite_tau_equivalence,
    suite_tau_bilinear,
    suite_tau_cauchy_riemann,
    suite_tau_conjugation,
    suite_tau_F_reality,
    suite_tau_eta_consistency,
    suite_ksurf_axioms,
    suite_ksurf_edges,
    suite_ksurf_torsions,
    suite_ksurf_compatibility,
    suite_ksurf_compat_sensitivity,
    suite_ksurf_angle_identity,
    suite_ksurf_periodicity,
)


def run_suites(which="all") -> list[SuiteResult]:
    fns = IDENTITY_SUITES if which == "identities" else ALL_SUITES
    return [fn() for fn in fns]
