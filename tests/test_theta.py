import cmath
import itertools
import math

import numpy as np
import pytest

from sgsurf import elliptic, theta
from sgsurf.errors import DomainError, PoleError, ThetaOverflowError

MOD = elliptic.make_modulus(0.6)
P = theta.ThetaParams(MOD.taup)


def test_params_validation():
    with pytest.raises(ValueError):
        theta.ThetaParams(-0.5j)
    with pytest.raises(ValueError):
        theta.ThetaParams(0.3 + 0.5j)
    assert 0.0 < theta.ThetaParams(1j).q.real < 1.0


@pytest.mark.parametrize("make", [
    lambda: theta.ThetaParams(-0.5j),                        # Im(tau) <= 0
    lambda: theta.ThetaParams(complex(0.0, math.nan)),
    lambda: theta.ThetaParams(0.3 + 0.5j),                   # not pure imaginary
    lambda: theta.theta_with_prime(4, 0.1, P),               # no such index
    # a non-finite argument, whichever part: never ThetaOverflowError
    lambda: theta.theta_with_prime(3, complex(math.inf, 0.0), P),
    lambda: theta.theta_with_prime(3, complex(0.0, math.inf), P),
    lambda: theta.theta_with_prime(1, np.array([0.1, complex(0.0, math.nan)]), P),
], ids=["im-tau", "nan-tau", "re-tau", "index", "inf-real", "inf-imag", "nan-imag"])
def test_bad_lattices_indices_and_arguments_raise_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_theta1_odd_others_even():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        assert theta.theta_j(1, -v, P) == pytest.approx(-theta.theta_j(1, v, P), abs=1e-13)
        for j in (0, 2, 3):
            assert theta.theta_j(j, -v, P) == pytest.approx(theta.theta_j(j, v, P), abs=1e-13)
    assert abs(theta.theta_j(1, 0.0, P)) == 0.0


def test_unit_period_translations():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        assert theta.theta_j(0, v + 1, P) == pytest.approx(theta.theta_j(0, v, P), abs=1e-13)
        assert theta.theta_j(3, v + 1, P) == pytest.approx(theta.theta_j(3, v, P), abs=1e-13)
        assert theta.theta_j(1, v + 1, P) == pytest.approx(-theta.theta_j(1, v, P), abs=1e-13)
        assert theta.theta_j(2, v + 1, P) == pytest.approx(-theta.theta_j(2, v, P), abs=1e-13)


def test_half_period_table():
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        assert theta.theta_j(0, v + 0.5, P) == pytest.approx(theta.theta_j(3, v, P), abs=1e-13)
        assert theta.theta_j(2, v + 0.5, P) == pytest.approx(-theta.theta_j(1, v, P), abs=1e-13)
        assert theta.theta_j(3, v + 0.5, P) == pytest.approx(theta.theta_j(0, v, P), abs=1e-13)


def test_lattice_quasi_periodicity():
    v = 0.31 + 0.22j
    for c in (1, -2, 4):
        factor = cmath.exp(-1j * math.pi * c * c * P.tau - 2j * math.pi * c * v)
        got = theta.theta_j(3, v + c * P.tau, P)
        assert got == pytest.approx(factor * theta.theta_j(3, v, P), rel=1e-12)
        got0 = theta.theta_j(0, v + c * P.tau, P)
        assert got0 == pytest.approx((-1) ** c * factor * theta.theta_j(0, v, P), rel=1e-12)


def test_overflow_guard():
    with pytest.raises(ThetaOverflowError):
        theta.theta_j(3, 40j * P.tau.imag, P)


def test_derivatives_at_zero():
    for j in (0, 2, 3):
        assert abs(theta.theta_with_prime(j, 0.0, P)[1]) < 1e-14
    # classical product identity, verified against the plain series values
    lhs = theta.theta_with_prime(1, 0.0, P)[1]
    rhs = math.pi * (theta.theta_j(0, 0.0, P)
                     * theta.theta_j(2, 0.0, P)
                     * theta.theta_j(3, 0.0, P))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_derivative_vs_finite_difference():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(15):
        v = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        for j in (0, 1, 2, 3):
            fd = (theta.theta_j(j, v + h, P) - theta.theta_j(j, v - h, P)) / (2.0 * h)
            d = theta.theta_with_prime(j, v, P)[1]
            assert abs(d - fd) <= 1e-8 * max(1.0, abs(d))


def test_jacobi_complex_matches_real_jacobi():
    rng = np.random.default_rng(6)
    for k in (0.3, 0.6, 0.9, 0.99):
        mod = elliptic.make_modulus(k)
        for u in rng.uniform(-4.0 * mod.K, 4.0 * mod.K, 25):
            s1, c1, d1 = elliptic.jacobi(float(u), mod)
            s2, c2, d2 = theta.jacobi_complex(float(u), mod)
            assert abs(s2 - s1) < 1e-11 and abs(c2 - c1) < 1e-11 and abs(d2 - d1) < 1e-11
            assert abs(s2.imag) < 1e-12 and abs(c2.imag) < 1e-12 and abs(d2.imag) < 1e-12


def test_jacobi_complex_symmetry_point():
    # u = K maps to v = 0 where the sn quotient is exactly 1
    sn, cn, dn = theta.jacobi_complex(MOD.K, MOD)
    assert sn == pytest.approx(1.0, abs=1e-13)
    assert abs(cn) < 1e-13
    assert dn == pytest.approx(MOD.kp, abs=1e-13)


def test_dn_quotient_formula():
    # theta_2(v) theta_2(0) / (theta_3(v) theta_3(0)) = dn(psi)
    rng = np.random.default_rng(7)
    for psi in rng.uniform(-4, 4, 50):
        v = (psi - MOD.K) / (2j * MOD.Kp)
        q = (theta.theta_j(2, v, P) * theta.theta_j(2, 0.0, P)
             / (theta.theta_j(3, v, P) * theta.theta_j(3, 0.0, P)))
        assert q == pytest.approx(elliptic.jacobi(float(psi), MOD)[2], abs=1e-11)


def test_nome_from_theta_zero_values():
    # k = (theta_0(0)/theta_3(0))^2 on the taup lattice
    got = (theta.theta_j(0, 0.0, P) / theta.theta_j(3, 0.0, P)) ** 2
    assert got == pytest.approx(MOD.k, abs=1e-13)


def test_weierstrass_constants():
    wc = theta.weierstrass_constants(MOD)
    assert wc.e1 + wc.e2 + wc.e3 == pytest.approx(0.0, abs=1e-15)
    assert wc.e1 == pytest.approx((2 / 3) * (2 * 0.36 - 1), abs=1e-15)
    assert wc.e2.conjugate() == pytest.approx(wc.e3)
    assert wc.omega == pytest.approx(MOD.Kp)
    assert wc.omegap == pytest.approx((1j * MOD.K + MOD.Kp) / 2)
    alt = math.pi / (MOD.K * MOD.Kp) - 2 * MOD.E / MOD.K + (1 - wc.e1)
    assert wc.zeta_omega_over_omega == pytest.approx(alt, abs=1e-13)


def test_weierstrass_p_values_and_periods():
    wc = theta.weierstrass_constants(MOD)
    assert theta.weierstrass_p(wc.omega / 2, MOD) == pytest.approx(wc.e1 + 1.0, abs=1e-13)
    z = 0.213 + 0.11j
    assert theta.weierstrass_p(z + 2 * wc.omega, MOD) == pytest.approx(
        theta.weierstrass_p(z, MOD), abs=1e-12)
    assert theta.weierstrass_p(z + 2 * wc.omegap, MOD) == pytest.approx(
        theta.weierstrass_p(z, MOD), abs=1e-12)


def test_weierstrass_p_pole():
    with pytest.raises(PoleError):
        theta.weierstrass_p(0.0, MOD)


def test_modular_identity_spot():
    v = 0.21 - 0.12j
    lhs = theta.theta_j(3, v / MOD.tau, P)
    rhs = (cmath.exp(1j * math.pi * (v * v / MOD.tau - 0.25))
           * cmath.sqrt(MOD.tau) * theta.theta_j(3, v, theta.ThetaParams(MOD.tau)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


@pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("multiple", [1, 2], ids=["taup", "2taup"])
def test_one_reduction_for_any_indices_gives_the_one_index_bits(k, multiple):
    # the indices and arguments of one call share its band reduction and, per
    # frequency parity, its trig table; each index must still sum exactly as
    # alone, and each argument keep its shape
    p = theta.lattice_params(elliptic.make_modulus(k), multiple)
    half = 0.5 * p.tau.imag
    # band edges: Re v on the real half periods, Im v on odd multiples of
    # Im tau / 2, where the reduction's integer shifts switch
    v = np.array([x + 1j * y for x in (-0.5, 0.5, 1.5, 0.25)
                  for y in (0.0, half, -half, 3.0 * half, -5.0 * half)])
    alone = {j: theta.theta_with_prime(j, v, p) for j in range(4)}
    for r in range(1, 5):
        for js in itertools.permutations(range(4), r):
            [each] = theta._thetas(js, p, v)
            for j, got in zip(js, each):
                assert [_bits(x) for x in got] == [_bits(x) for x in alone[j]]
            head, tail = theta._thetas(js, p, v[:8].reshape(2, 4), v[8:])
            for j, h, t in zip(js, head, tail):
                assert h[0].shape == h[1].shape == (2, 4)
                got = [np.concatenate([x.ravel(), y]) for x, y in zip(h, t)]
                assert [_bits(x) for x in got] == [_bits(x) for x in alone[j]]
        for js in itertools.combinations(range(4), r):
            # every site an argument of its own, in one call
            for i, each in enumerate(theta._thetas(js, p, *v.tolist())):
                for j, got in zip(js, each):
                    assert [_bits(y) for y in got] == [_bits(y[i]) for y in alone[j]]
    for i, x in enumerate(v.tolist()):
        for j in range(4):
            got = theta.theta_with_prime(j, x, p)
            assert all(type(y) is complex for y in got)
            assert [_bits(y) for y in got] == [_bits(y[i]) for y in alone[j]]
