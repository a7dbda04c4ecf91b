import math

import numpy as np
import pytest

from sgsurf import elliptic, sg, theta
from sgsurf.errors import DomainError, PoleError

MOD = elliptic.make_modulus(0.6)


def test_half_angle_validation():
    with pytest.raises(DomainError):
        sg.HalfAngle(c=0.8, s=0.7)
    with pytest.raises(DomainError):
        sg.semi_residuals_from(sg.HalfAngle(c=1.0, s=0.0), sg.HalfAngle(c=1.0, s=0.0), 1.0, 1.0)
    h = sg.HalfAngle(c=0.6, s=-0.8)
    assert h.half_exponential() == pytest.approx(complex(0.6, -0.8))


def test_quarter_exponential_branch():
    h = sg.HalfAngle(c=0.0, s=-1.0)  # w/2 = -pi/2
    q = h.quarter_exponential()
    assert q.real > 0 and q.imag < 0
    assert q * q == pytest.approx(h.half_exponential(), abs=1e-15)


def test_family_defaults_and_validation():
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.2, A=0.3, family="dn")
    assert p.xi0 == 0.5
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.2, A=0.3, family="cn")
    assert p.xi0 == 0.0
    with pytest.raises(ValueError):
        sg.SemiDiscreteParams(mod=MOD, Omega=0.2, A=0.3, family="nd")


def test_semi_sample_special_points():
    # dn family at xi = 0: dn(0) = 1, sn(0) = 0
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.2, A=0.3, family="dn", xi0=0.0)
    h = sg.semi_sample(p, 0, 0.0)
    assert (h.c, h.s) == pytest.approx((1.0, 0.0), abs=1e-14)
    # cn family at 4K xi = K: cn(K) = 0, sn(K) = 1
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.2, A=0.3, family="cn", xi0=0.25)
    h = sg.semi_sample(p, 0, 0.0)
    assert (h.c, h.s) == pytest.approx((0.0, 1.0), abs=1e-14)


@pytest.mark.parametrize("family", sg.FAMILIES)
def test_dwdt_vs_finite_difference(family):
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.23, A=0.31, family=family)
    h_step = 1e-5
    for m in (-3, 0, 4):
        for t in (0.2, 1.1):
            h0 = sg.semi_sample(p, m, t)
            hp = sg.semi_sample(p, m, t + h_step)
            hm = sg.semi_sample(p, m, t - h_step)
            dc = (hp.c - hm.c) / (2 * h_step)
            ds = (hp.s - hm.s) / (2 * h_step)
            # d/dt of (cos w/2, sin w/2) = (dw/dt / 2) * (-sin w/2, cos w/2)
            assert dc == pytest.approx(-0.5 * h0.s * h0.dwdt, abs=1e-7)
            assert ds == pytest.approx(0.5 * h0.c * h0.dwdt, abs=1e-7)


def test_coefficient_products():
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.23, A=0.31, family="dn")
    a, b = sg.semi_sg_coeffs(p)
    rate = 8.0 * MOD.K * p.A
    assert a * b == pytest.approx(-rate * rate, rel=1e-13)
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.23, A=0.31, family="cn")
    g, d = sg.semi_sg_coeffs(p)
    assert g * d == pytest.approx(-(MOD.k * rate) ** 2, rel=1e-13)


@pytest.mark.parametrize("family", sg.FAMILIES)
def test_coefficients_match_fit_oracle(family):
    # least-squares fit of the nulling constant over (m, t) samples
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.23, A=0.31, family=family)
    lhs_sg, rhs_sg, lhs_mk, rhs_mk = [], [], [], []
    for m in range(-8, 8):
        for t in (0.0, 0.4, 1.3):
            w0 = sg.semi_sample(p, m, t)
            w1 = sg.semi_sample(p, m + 1, t)
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
    # 2K Omega = K puts cn at a zero
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.5, A=0.3, family="dn")
    with pytest.raises(PoleError):
        sg.semi_sg_coeffs(p)


@pytest.mark.parametrize("family", sg.FAMILIES)
@pytest.mark.parametrize("k", [0.3, 0.6, 0.9, 0.99])
def test_semi_residuals(family, k):
    mod = elliptic.make_modulus(k)
    p = sg.SemiDiscreteParams(mod=mod, Omega=0.23, A=0.31, family=family)
    worst = 0.0
    for m in range(-20, 20):
        for t in (0.0, 0.3, 0.7, 1.3, 2.1):
            r1, r2 = sg.semi_residuals(p, m, t)
            worst = max(worst, abs(r1), abs(r2))
    assert worst < 1e-10


def test_semi_residual_sensitivity():
    p = sg.SemiDiscreteParams(mod=MOD, Omega=0.23, A=0.31, family="dn")
    c1, c2 = sg.semi_sg_coeffs(p)
    detected = 0.0
    for m in range(-5, 5):
        w0, w1 = sg.semi_sample(p, m, 0.3), sg.semi_sample(p, m + 1, 0.3)
        s = 1.01 * w1.s
        nrm = math.hypot(w1.c, s)
        w1p = sg.HalfAngle(c=w1.c / nrm, s=s / nrm, dwdt=w1.dwdt)
        r1, _ = sg.semi_residuals_from(w0, w1p, c1, c2)
        detected = max(detected, abs(r1))
    assert detected > 1e-3


def test_discrete_sample_special_points():
    p = sg.DiscreteParams(mod=MOD, Omega=0.23, P=0.17, family="dn")  # xi0 = 1/2
    h = sg.discrete_sample(p, 0, 0)
    assert h.c == pytest.approx(1.0, abs=1e-13)   # dn(2K) = dn(0)
    assert h.s == pytest.approx(0.0, abs=1e-13)   # sn(2K) = 0
    p = sg.DiscreteParams(mod=MOD, Omega=0.23, P=0.17, family="cn")  # xi0 = 0
    h = sg.discrete_sample(p, 0, 0)
    assert (h.c, h.s) == pytest.approx((1.0, 0.0), abs=1e-14)


def test_discrete_matches_semi_when_n_folded_into_t():
    pd = sg.DiscreteParams(mod=MOD, Omega=0.23, P=0.17, family="dn")
    ps = sg.SemiDiscreteParams(mod=MOD, Omega=0.23, A=pd.P, family="dn")
    for m in (-3, 0, 5):
        for n in (-2, 0, 3):
            hd = sg.discrete_sample(pd, m, n)
            hs = sg.semi_sample(ps, m, float(n))
            assert hd.c == pytest.approx(hs.c, abs=1e-13)
            assert hd.s == pytest.approx(hs.s, abs=1e-13)


@pytest.mark.parametrize("family", sg.FAMILIES)
def test_discrete_residual_grid(family):
    p = sg.DiscreteParams(mod=MOD, Omega=0.23, P=0.17, family=family)
    worst = 0.0
    for m in range(-10, 10):
        for n in range(-10, 10):
            worst = max(worst, abs(sg.discrete_sg_residual(p, m, n)))
    assert worst < 1e-9


def test_discrete_residual_sensitivity():
    p = sg.DiscreteParams(mod=MOD, Omega=0.23, P=0.17, family="dn")
    coeff = sg.discrete_sg_coeff(p)
    detected = 0.0
    for m in range(-5, 5):
        wA = sg.discrete_sample(p, m + 1, 1)
        s = 1.01 * wA.s
        nrm = math.hypot(wA.c, s)
        wAp = sg.HalfAngle(c=wA.c / nrm, s=s / nrm)
        r = sg.discrete_sg_residual_from(
            wAp, sg.discrete_sample(p, m, 0), sg.discrete_sample(p, m + 1, 0),
            sg.discrete_sample(p, m, 1), coeff)
        detected = max(detected, abs(r))
    assert detected > 1e-3


def test_cn_coeff_dn_quotient_identity():
    # cn-family coupling equals (dn(2K(O+P)) - dn(2K(O-P))) / (dn(2K(O+P)) + dn(2K(O-P)))
    p = sg.DiscreteParams(mod=MOD, Omega=0.23, P=0.17, family="cn")
    dp = elliptic.jacobi(2 * MOD.K * (p.Omega + p.P), MOD)[2]
    dm = elliptic.jacobi(2 * MOD.K * (p.Omega - p.P), MOD)[2]
    assert sg.discrete_sg_coeff(p) == pytest.approx((dp - dm) / (dp + dm), abs=1e-11)


def test_quarter_angle_vs_theta_quotient():
    """tan(w/4) of the stored cn-family field is the reciprocal of the quotient
    theta_0 theta_2 / (theta_3 theta_1); the quotient itself belongs to the
    complementary lift with cos(w/2) = -cn."""
    p = theta.ThetaParams(MOD.tau)
    rng = np.random.default_rng(8)
    for xi in rng.uniform(-0.9, 0.9, 50):
        sn, cn, dn = elliptic.jacobi(4.0 * MOD.K * xi, MOD)
        quotient = (theta.theta_j(0, xi, p) * theta.theta_j(2, xi, p)
                    / (theta.theta_j(3, xi, p) * theta.theta_j(1, xi, p))).real
        stored = sg.HalfAngle(c=cn, s=sn).tan_quarter()
        assert stored * quotient == pytest.approx(1.0, abs=1e-9)
        flipped = sg.HalfAngle(c=-cn, s=sn).tan_quarter()
        assert flipped == pytest.approx(quotient, abs=1e-9 * max(1.0, abs(quotient)))
