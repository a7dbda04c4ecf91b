import math

import numpy as np
import pytest

from sgsurf import elliptic, ksurf, sg, surfaces, theta
from sgsurf.errors import DomainError, PoleError

MOD = elliptic.make_modulus(0.6)
K4 = 4.0 * MOD.K   # the real period: the steps below are 0.23 and 0.17 of it


def _semi(family, k=0.6, omega=0.23, rate=0.31):
    """The curve lattice of steps omega and rate in units of 4K."""
    mod = elliptic.make_modulus(k)
    return surfaces.CurveLattice(mod=mod, family=family, gamma_step=4.0 * mod.K * omega,
                                 beta_rate=4.0 * mod.K * rate)


def _discrete(family):
    return ksurf.KParams(mod=MOD, family=family, gamma_step=0.23 * K4, delta_step=0.17 * K4)


def test_half_angle_validation():
    with pytest.raises(DomainError):
        sg.HalfAngle(c=0.8, s=0.7)
    with pytest.raises(DomainError):
        sg.semi_residuals_from(sg.HalfAngle(c=1.0, s=0.0), sg.HalfAngle(c=1.0, s=0.0), 1.0, 1.0)
    h = sg.HalfAngle(c=0.6, s=-0.8)
    assert h.half_exponential() == pytest.approx(complex(0.6, -0.8))


_EMPTY = np.array([], dtype=int)


@pytest.mark.parametrize("evaluate", [
    lambda: surfaces.half_angles(_semi("dn"), _EMPTY, 0.3).c,
    lambda: surfaces.flow_angle(_semi("cn"), _EMPTY, 0.3).s,
    lambda: np.stack(sg.semi_residuals(_semi("dn"), _EMPTY, 0.3))[0],
    lambda: sg.discrete_sg_residual(_discrete("cn"), _EMPTY, _EMPTY),
    lambda: ksurf.compat_matrices(*sg.discrete_quad(_discrete("dn"), _EMPTY, _EMPTY), 0.4, 0.5),
], ids=["half_angles", "flow_angle", "semi_residuals", "discrete_sg_residual",
        "compat_matrices"])
def test_an_empty_window_gives_an_empty_result(evaluate):
    assert evaluate().shape == (0,)


def test_quarter_exponential_branch():
    h = sg.HalfAngle(c=0.0, s=-1.0)  # w/2 = -pi/2
    q = h.quarter_exponential()
    assert q.real > 0 and q.imag < 0
    assert q * q == pytest.approx(h.half_exponential(), abs=1e-15)


def test_semi_sample_special_points():
    # psi = 0: dn(0) = cn(0) = 1, sn(0) = 0, for both families
    for family in elliptic.FAMILIES:
        h = surfaces.half_angles(_semi(family), 0, 0.0)
        assert (h.c, h.s) == (1.0, 0.0)
    # psi = K (gamma = K, m = 1): cn(K) = 0, sn(K) = 1, dn(K) = k'
    p = surfaces.CurveLattice(mod=MOD, family="cn", gamma_step=MOD.K, beta_rate=0.3)
    h = surfaces.half_angles(p, 1, 0.0)
    assert (h.c, h.s) == pytest.approx((0.0, 1.0), abs=1e-14)
    p = surfaces.CurveLattice(mod=MOD, family="dn", gamma_step=MOD.K, beta_rate=0.3)
    h = surfaces.half_angles(p, 1, 0.0)
    assert (h.c, h.s) == pytest.approx((MOD.kp, -MOD.k), abs=1e-14)


@pytest.mark.parametrize("family", elliptic.FAMILIES)
def test_dwdt_vs_finite_difference(family):
    p = _semi(family)
    h_step = 1e-5
    for m in (-3, 0, 4):
        for t in (0.2, 1.1):
            h0 = surfaces.half_angles(p, m, t)
            hp = surfaces.half_angles(p, m, t + h_step)
            hm = surfaces.half_angles(p, m, t - h_step)
            dc = (hp.c - hm.c) / (2 * h_step)
            ds = (hp.s - hm.s) / (2 * h_step)
            # d/dt of (cos w/2, sin w/2) = (dw/dt / 2) * (-sin w/2, cos w/2)
            assert dc == pytest.approx(-0.5 * h0.s * h0.dwdt, abs=1e-7)
            assert ds == pytest.approx(0.5 * h0.c * h0.dwdt, abs=1e-7)


def test_coefficient_products():
    p = _semi("dn")
    a, b = sg.semi_sg_coeffs(p)
    rate = 2.0 * p.beta_rate
    assert a * b == pytest.approx(-rate * rate, rel=1e-13)
    g, d = sg.semi_sg_coeffs(_semi("cn"))
    assert g * d == pytest.approx(-(MOD.k * rate) ** 2, rel=1e-13)


@pytest.mark.parametrize("family", elliptic.FAMILIES)
def test_coefficients_match_fit_oracle(family):
    # least-squares fit of the nulling constant over (m, t) samples
    p = _semi(family)
    lhs_sg, rhs_sg, lhs_mk, rhs_mk = [], [], [], []
    for m in range(-8, 8):
        for t in (0.0, 0.4, 1.3):
            w0 = surfaces.half_angles(p, m, t)
            w1 = surfaces.half_angles(p, m + 1, t)
            lhs_sg.append(w1.dwdt - w0.dwdt)
            rhs_sg.append(w1.s * w0.c + w1.c * w0.s)
            lhs_mk.append(w1.dwdt + w0.dwdt)
            rhs_mk.append(w1.s * w0.c - w1.c * w0.s)
    fit_sg = np.dot(lhs_sg, rhs_sg) / np.dot(rhs_sg, rhs_sg)
    fit_mk = np.dot(lhs_mk, rhs_mk) / np.dot(rhs_mk, rhs_mk)
    c_sg, c_mk = sg.semi_sg_coeffs(p)
    assert c_sg == pytest.approx(fit_sg, rel=1e-11)
    assert c_mk == pytest.approx(fit_mk, rel=1e-11)


def test_coefficient_pole():
    # gamma / 2 = K puts cn at a zero
    p = _semi("dn", omega=0.5)
    with pytest.raises(PoleError):
        sg.semi_sg_coeffs(p)


@pytest.mark.parametrize("family", elliptic.FAMILIES)
@pytest.mark.parametrize("k", [0.3, 0.6, 0.9, 0.99])
def test_semi_residuals(family, k):
    p = _semi(family, k=k)
    worst = 0.0
    for m in range(-20, 20):
        for t in (0.0, 0.3, 0.7, 1.3, 2.1):
            r1, r2 = sg.semi_residuals(p, m, t)
            worst = max(worst, abs(r1), abs(r2))
    assert worst < 1e-10


def test_semi_residual_sensitivity():
    p = _semi("dn")
    c1, c2 = sg.semi_sg_coeffs(p)
    detected = 0.0
    for m in range(-5, 5):
        w0, w1 = surfaces.half_angles(p, m, 0.3), surfaces.half_angles(p, m + 1, 0.3)
        s = 1.01 * w1.s
        nrm = math.hypot(w1.c, s)
        w1p = sg.HalfAngle(c=w1.c / nrm, s=s / nrm, dwdt=w1.dwdt)
        r1, _ = sg.semi_residuals_from(w0, w1p, c1, c2)
        detected = max(detected, abs(r1))
    assert detected > 1e-3


def test_discrete_sample_special_points():
    # psi_{0,0} = 0 for both families; psi_{0,1} = delta = K
    for family in elliptic.FAMILIES:
        h = surfaces.half_angles(_discrete(family), 0, 0)
        assert (h.c, h.s) == (1.0, 0.0)
    for family, want in (("dn", (MOD.kp, -MOD.k)), ("cn", (0.0, 1.0))):
        p = ksurf.KParams(mod=MOD, family=family, gamma_step=0.8, delta_step=MOD.K)
        h = surfaces.half_angles(p, 0, 1)
        assert (h.c, h.s) == pytest.approx(want, abs=1e-14)


def test_discrete_matches_semi_when_n_folded_into_t():
    # the K-surface (gamma, delta) carries the field of the curve (gamma, beta = delta) at t = n
    for family in elliptic.FAMILIES:
        pd = _discrete(family)
        ps = surfaces.SurfaceParams(mod=MOD, family=family, gamma_step=pd.gamma_step,
                                    beta_rate=pd.delta_step)
        for m in (-3, 0, 5):
            for n in (-2, 0, 3):
                hd = surfaces.half_angles(pd, m, n)
                hs = surfaces.half_angles(ps, m, float(n))
                assert (hd.c, hd.s) == (hs.c, hs.s)


@pytest.mark.parametrize("family", elliptic.FAMILIES)
def test_discrete_residual_grid(family):
    p = _discrete(family)
    worst = 0.0
    for m in range(-10, 10):
        for n in range(-10, 10):
            worst = max(worst, abs(sg.discrete_sg_residual(p, m, n)))
    assert worst < 1e-9


def test_discrete_residual_sensitivity():
    p = _discrete("dn")
    coeff = sg.discrete_sg_coeff(p)
    detected = 0.0
    for m in range(-5, 5):
        wA, wB, wC, wD = sg.discrete_quad(p, m, 0)
        s = 1.01 * wA.s
        nrm = math.hypot(wA.c, s)
        wAp = sg.HalfAngle(c=wA.c / nrm, s=s / nrm)
        r = sg.discrete_sg_residual_from(wAp, wB, wC, wD, coeff)
        detected = max(detected, abs(r))
    assert detected > 1e-3


def test_cn_coeff_dn_quotient_identity():
    # cn-family coupling equals (dn((g+d)/2) - dn((g-d)/2)) / (dn((g+d)/2) + dn((g-d)/2))
    p = _discrete("cn")
    dp = elliptic.jacobi(0.5 * (p.gamma_step + p.delta_step), MOD)[2]
    dm = elliptic.jacobi(0.5 * (p.gamma_step - p.delta_step), MOD)[2]
    assert sg.discrete_sg_coeff(p) == pytest.approx((dp - dm) / (dp + dm), abs=1e-11)


def test_quarter_angle_vs_theta_quotient():
    """tan(w/4) of the stored cn-family field (imag / real of its quarter
    exponential) is the reciprocal of the quotient theta_0 theta_2 / (theta_3
    theta_1); the quotient itself belongs to the complementary lift with
    cos(w/2) = -cn."""
    p = theta.ThetaParams(MOD.tau)
    rng = np.random.default_rng(8)
    for xi in rng.uniform(-0.9, 0.9, 50):
        sn, cn, dn = elliptic.jacobi(4.0 * MOD.K * xi, MOD)
        quotient = (theta.theta_j(0, xi, p) * theta.theta_j(2, xi, p)
                    / (theta.theta_j(3, xi, p) * theta.theta_j(1, xi, p))).real
        q = sg.HalfAngle(c=cn, s=sn).quarter_exponential()
        stored = q.imag / q.real
        assert stored * quotient == pytest.approx(1.0, abs=1e-9)
        q = sg.HalfAngle(c=-cn, s=sn).quarter_exponential()
        flipped = q.imag / q.real
        assert flipped == pytest.approx(quotient, abs=1e-9 * max(1.0, abs(quotient)))
