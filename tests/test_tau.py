import cmath
import math

import numpy as np
import pytest

from sgsurf import elliptic, ksurf, surfaces, tau, theta
from sgsurf.errors import PoleError

MOD = elliptic.make_modulus(0.6)
GAMMA, BETA = 0.8, 1.0


def _lattice(family, twisted=False, k=0.6):
    """The curve lattice that both the tau route and the closed forms read."""
    return surfaces.SurfaceParams(mod=elliptic.make_modulus(k), family=family,
                                  gamma_step=GAMMA, beta_rate=BETA, twisted=twisted)


def test_context_constants():
    c = _lattice("dn")
    assert tau.lambda0(c) == pytest.approx(0.6 * MOD.Kp / 2)
    assert c.epsilon_sign == 1
    assert _lattice("dn", twisted=True).epsilon_sign == -1
    assert tau.lambda0(_lattice("cn")) == pytest.approx(MOD.Kp / 2)
    sn, cn, dn = elliptic.jacobi(GAMMA, MOD)
    assert math.cos(c.alpha_step) == pytest.approx(dn)
    assert math.sin(c.alpha_step) == pytest.approx(0.6 * sn)
    ct = _lattice("cn", twisted=True)
    assert math.cos(ct.alpha_step) == pytest.approx(-cn)


def test_dn_field_value_at_special_point():
    # -i g / f* at lam = lambda0, z = i lambda0 encodes the dn field
    c = _lattice("dn")
    for m, t in ((0, 0.0), (3, 0.4), (-2, 1.1)):
        s = tau.tau_sample(c, m, t, z=1j * tau.lambda0(c))
        _, psi = c.phases(m, t)
        sn, _, dn = elliptic.jacobi(psi, c.mod)
        assert -1j * s.g / s.fstar == pytest.approx(dn - 1j * c.mod.k * sn, abs=1e-12)


def test_cn_field_value_at_special_point():
    c = _lattice("cn")
    for m, t in ((0, 0.0), (3, 0.4), (-2, 1.1)):
        s = tau.tau_sample(c, m, t, z=1j * tau.lambda0(c))
        _, psi = c.phases(m, t)
        sn, cn, _ = elliptic.jacobi(psi, c.mod)
        assert -1j * s.g / s.fstar == pytest.approx(cn + 1j * sn, abs=1e-12)


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("twisted", [False, True])
def test_F_collapses_to_quartet_sum(family, twisted):
    c = _lattice(family, twisted)
    rng = np.random.default_rng(20)
    for _ in range(25):
        m = int(rng.integers(-6, 7))
        t = float(rng.uniform(0, 1.5))
        lam = float(rng.uniform(-0.8, 0.8))
        z = float(rng.uniform(-0.4, 0.4))
        s = tau.tau_sample(c, m, t, lam=lam, z=z)
        q = s.f * s.fstar + s.g * s.gstar
        assert abs(s.F - q) / abs(s.F) < 1e-12


def test_F_closed_form_at_lambda0():
    # dn family: F = 2 theta_3(v(z)) theta_0(0) on the taup lattice
    c = _lattice("dn")
    p1 = theta.ThetaParams(MOD.taup)
    for m in (-4, 0, 5):
        s = tau.tau_sample(c, m, 0.3)
        v = (c.phases(m, 0.3)[1] - MOD.K) / (2j * MOD.Kp)
        ref = 2.0 * theta.theta_j(3, v, p1) * theta.theta_j(0, 0.0, p1)
        assert s.F == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("twisted", [False, True])
def test_F_real_positive(family, twisted):
    c = _lattice(family, twisted)
    for m in range(-8, 9):
        for z in (0.0, 0.25):
            s = tau.tau_sample(c, m, 0.3, z=z)
            assert abs(s.F.imag) < 1e-11 * abs(s.F)
            assert s.F.real > 0.0


def test_conjugation_symmetry_theta_level():
    # dn shift: (theta_3(v+))* = theta_3(v-) and theta_2 alike;
    # cn shift flips the sign of the theta_2 pairing
    rng = np.random.default_rng(21)
    p2 = theta.ThetaParams(2 * MOD.taup)
    for _ in range(40):
        psi, lam, z = rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)
        v = (psi - MOD.K) / (2j * MOD.Kp)
        den = 0.6 * MOD.Kp
        vp = v + (lam + 1j * z) / den
        vm = v + (-lam + 1j * z) / den
        t3 = theta.theta_j(3, vp, p2)
        t2 = theta.theta_j(2, vp, p2)
        assert t3.conjugate() == pytest.approx(theta.theta_j(3, vm, p2), rel=1e-11)
        assert t2.conjugate() == pytest.approx(theta.theta_j(2, vm, p2), rel=1e-11)
        den = MOD.Kp
        off = 0.5 + MOD.taup
        vp = v + off + (lam + 1j * z) / den
        vm = v + off + (-lam + 1j * z) / den
        big = max(1.0, abs(theta.theta_j(3, vp, p2)))
        assert theta.theta_j(3, vp, p2).conjugate() == pytest.approx(
            theta.theta_j(3, vm, p2), abs=1e-11 * big)
        assert theta.theta_j(2, vp, p2).conjugate() == pytest.approx(
            -theta.theta_j(2, vm, p2), abs=1e-11 * big)


def test_conjugation_symmetry_quartet_level():
    rng = np.random.default_rng(22)
    for family in ("dn", "cn"):
        for twisted in (False, True):
            c = _lattice(family, twisted)
            for _ in range(20):
                s = tau.tau_sample(c, int(rng.integers(-6, 7)), float(rng.uniform(0, 1.5)),
                                   lam=float(rng.uniform(-0.8, 0.8)),
                                   z=float(rng.uniform(-0.5, 0.5)))
                scale = max(1.0, abs(s.f), abs(s.g))
                assert abs(s.fstar - s.f.conjugate()) / scale < 1e-11
                assert abs(s.gstar - s.g.conjugate()) / scale < 1e-11


def test_H_over_F_closed_forms():
    # dn: H/F = exp(i phi) dn(psi) / (2k); cn: H/F = (k/2) exp(i phi) cn(psi)
    for family in ("dn", "cn"):
        c = _lattice(family)
        for m, t in ((0, 0.0), (2, 0.7), (-3, 1.2)):
            s = tau.tau_sample(c, m, t)
            phi, psi = c.phases(m, t)
            _, cn, dn = elliptic.jacobi(psi, c.mod)
            if family == "dn":
                ref = cmath.exp(1j * phi) * dn / (2.0 * c.mod.k)
            else:
                ref = 0.5 * c.mod.k * cmath.exp(1j * phi) * cn
            assert s.H / s.F == pytest.approx(ref, abs=1e-12)


def test_binormal_third_component():
    c = _lattice("dn")
    for m in (-3, 0, 4):
        s = tau.tau_sample(c, m, 0.3)
        _, psi = c.phases(m, 0.3)
        cn = elliptic.jacobi(psi, c.mod)[1]
        assert ((s.f * s.fstar - s.g * s.gstar) / s.F).real == pytest.approx(-cn, abs=1e-12)


def test_origin_point_dn():
    g, b = tau.gamma_from_tau(_lattice("dn"), 0, 0.0)
    assert g == pytest.approx(np.array([1 / 0.6, 0.0, 0.0]), abs=1e-12)
    assert b == pytest.approx(np.array([0.0, 0.0, -1.0]), abs=1e-12)


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
def test_matches_closed_form_surfaces(family, twisted, k):
    c = _lattice(family, twisted, k=k)
    worst = 0.0
    for m in range(-12, 13):
        for t in (0.0, 0.37, 1.1):
            g1, b1 = tau.gamma_from_tau(c, m, t)
            worst = max(worst,
                        float(np.abs(g1 - surfaces.gamma_point(c, m, t)).max()),
                        float(np.abs(b1 - surfaces.b_point(c, m, t)).max()))
    assert worst < 1e-8


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("k", [0.3, 0.6, 0.9, 0.99])
def test_a_k_surface_lattice_gives_its_points_and_normals(family, k):
    """On a ``KParams`` the row n takes the place of t: the z drift of both
    steps enters eta_m, and the binormal takes the row sign (-1)^n, so the
    tau route returns F_{m,n} and N (dn) or -N (cn)."""
    p = ksurf.KParams(mod=elliptic.make_modulus(k), family=family, gamma_step=0.8,
                      delta_step=0.55)
    m, n = np.arange(-6, 7)[:, None], np.arange(-4, 5)
    g, b = tau.gamma_from_tau(p, m, n)
    F, N = ksurf.k_point(p, m, n)
    assert np.abs(g - F).max() <= 1e-12
    assert np.abs(b - (N if family == "dn" else -N)).max() <= 1e-12


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("twisted", [False, True])
def test_bilinear_relations(family, twisted):
    c = _lattice(family, twisted)
    for m in range(-8, 8):
        for t in (0.0, 0.45):
            fh, fr, _ = tau.bilinear_checks(c, m, t)
            assert fh < 1e-9
            assert fr < 1e-9


def test_cauchy_riemann_finite_difference():
    for family in ("dn", "cn"):
        c = _lattice(family)
        for m in (-3, 0, 4):
            _, _, cr = tau.bilinear_checks(c, m, 0.3)
            assert cr < 1e-6


def test_eta_consistency():
    for family in ("dn", "cn"):
        c = _lattice(family)
        for m in (-5, 0, 7):
            assert -(c.mod.Ep / tau._chain_den(c)) * tau.eta_m(c, m, 0.4) == pytest.approx(
                tau.i_r_m(c, m, 0.4), abs=1e-13)


def test_overflow_propagates_from_theta():
    from sgsurf.errors import ThetaOverflowError
    with pytest.raises(ThetaOverflowError):
        tau.tau_sample(_lattice("dn"), 200, 0.0)


def test_random_parameter_sweep_matches_closed_forms():
    rng = np.random.default_rng(78)
    tried = 0
    while tried < 20:
        k = float(rng.uniform(0.1, 0.95))
        mod = elliptic.make_modulus(k)
        g = float(rng.uniform(-1.5, 1.5)) * mod.K
        if abs(elliptic.jacobi(g, mod)[0]) < 0.05:
            continue
        b = float(rng.uniform(-1.5, 1.5))
        if abs(b) < 0.05:
            continue
        family = str(rng.choice(["dn", "cn"]))
        twisted = bool(rng.integers(0, 2))
        sp = surfaces.SurfaceParams(mod=mod, family=family, gamma_step=g, beta_rate=b,
                                    twisted=twisted)
        tried += 1
        for m in (-4, 0, 5):
            for t in (0.0, 0.61):
                g1, b1 = tau.gamma_from_tau(sp, m, t)
                assert np.abs(g1 - surfaces.gamma_point(sp, m, t)).max() < 1e-10
                assert np.abs(b1 - surfaces.b_point(sp, m, t)).max() < 1e-10


def test_a_vanishing_denominator_raises_pole_error(monkeypatch):
    # d log F / dz divides by theta_3(v) and the curve by F; an exact zero of
    # either is a pole, not an inf or NaN in the result
    c = _lattice("dn", False)
    real = tau._thetas

    def zero_theta_3(js, p, *args):
        out = real(js, p, *args)
        if p != theta.lattice_params(c.mod):
            return out
        return [[(v * 0.0, d) if j == 3 else (v, d) for j, (v, d) in zip(js, each)]
                for each in out]

    monkeypatch.setattr(tau, "_thetas", zero_theta_3)
    with pytest.raises(PoleError):
        tau.tau_sample(c, np.arange(3), 0.3)
    monkeypatch.setattr(tau, "_thetas", real)
    evaluate = tau._evaluate

    def zero_F(*args):
        f, g, fstar, gstar, F, H, dlog = evaluate(*args)
        return f, g, fstar, gstar, F * 0.0, H, dlog

    monkeypatch.setattr(tau, "_evaluate", zero_F)
    with pytest.raises(PoleError):
        tau.gamma_from_tau(c, np.arange(3), 0.3)


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_a_lam_array_alone_gives_every_field_its_sites(family):
    # H and d log F / dz do not depend on lam, yet carry the broadcast shape
    c = _lattice(family, twisted=True)
    lam = np.array([0.1, 0.2, 0.3])
    s = tau.tau_sample(c, 2, 0.3, lam=lam)
    for i, x in enumerate(lam.tolist()):
        one = tau.tau_sample(c, 2, 0.3, lam=x)
        for name in ("f", "g", "fstar", "gstar", "F", "H", "dlog"):
            assert getattr(s, name).shape == (3,)
            assert getattr(s, name)[i].tobytes() == getattr(one, name).tobytes()
